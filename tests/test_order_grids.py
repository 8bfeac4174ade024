"""Entry points that take a sequence of orders.

``cross_entropy_rate``, ``rate_spectral`` and
``cross_entropy_multivariate_gaussian`` evaluate a whole grid in one pass.
Every entry of the list they return must be the one-order call at that
order, with the same divergence verdicts, and a grid with a failing order
must raise what the one-order call raises at the earliest one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxent import (
    AlphaOrder,
    InvalidAlphaError,
    MarkovSource,
    NotIrreducibleError,
    StationaryGaussianSpec,
    ZeroMassError,
    cross_entropy_multivariate_gaussian,
    cross_entropy_rate,
    rate_spectral,
)
from rxent.markov import perron_eigenpair

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _grid(draw, edge):
    """Orders from below the existence edge (when there is one) to 3,
    through 1 and the edge itself."""
    low = 0.05 if edge is None else max(0.01, edge - 0.3)
    step = draw(_unit(0.05, 0.4))
    grid = list(np.arange(low, 3.0, step)) + [1.0, 1.0 + 1e-9]
    if edge is not None and edge > 0.0:
        grid += [edge, float(np.nextafter(edge, 2.0))]
    return sorted(float(a) for a in grid)


def _same(seq, one, maxulp=0):
    """Entry by entry: the same infinities, finite values within maxulp."""
    assert len(seq) == len(one)
    for got, want in zip(seq, one):
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= maxulp * np.spacing(abs(want))


def _one_by_one(call, grid):
    """The one-order results, or the error at the earliest failing order."""
    out = []
    for alpha in grid:
        try:
            out.append(call(alpha))
        except Exception as exc:  # noqa: BLE001 - compared below
            return out, exc
    return out, None


# --------------------------------------------------------------------------
# Markov

@st.composite
def _chain(draw, k, structure, zeros=0.0):
    raw = np.array([[draw(_unit(0.05, 1.0)) for _ in range(k)] for _ in range(k)])
    if structure == "reducible":  # the upper half never returns to the lower half
        raw[k // 2:, :k // 2] = 0.0
    elif structure == "absorbing":  # the first and last states absorb
        raw[0] = raw[-1] = 0.0
        raw[0, 0] = raw[-1, -1] = 1.0
    if zeros:  # drop entries, keeping each row's step to the next state
        drop = np.array([[draw(_unit(0.0, 1.0)) < zeros for _ in range(k)] for _ in range(k)])
        drop[np.arange(k), (np.arange(k) + 1) % k] = False
        raw = np.where(drop, 0.0, raw)
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def markov_grids(draw, zeros=0.0):
    k = draw(st.integers(2, 6))
    structure = draw(st.sampled_from(["irreducible", "reducible", "absorbing"]))
    p = MarkovSource.of(draw(_chain(k, structure)))
    q = MarkovSource.of(draw(_chain(k, "irreducible", zeros)))
    return p, q, _grid(draw, None)


class TestMarkovGrid:
    @PROPERTY
    @given(markov_grids())
    def test_each_entry_is_the_one_order_call(self, case):
        p, q, grid = case
        one, error = _one_by_one(lambda a: cross_entropy_rate(p, q, a), grid)
        assert error is None
        # batched LAPACK may round differently from a lone solve
        _same(cross_entropy_rate(p, q, grid), one, maxulp=2)

    @PROPERTY
    @given(markov_grids(zeros=0.3))
    def test_zeros_in_the_reference(self, case):
        # below 1 a zero in Q is an error; at 1 a forbidden move is +inf
        p, q, grid = case
        for orders in (grid, [a for a in grid if a >= 1.0]):
            one, error = _one_by_one(lambda a: cross_entropy_rate(p, q, a), orders)
            if error is None:
                _same(cross_entropy_rate(p, q, orders), one, maxulp=2)
            else:
                with pytest.raises(type(error)) as raised:
                    cross_entropy_rate(p, q, orders)
                assert str(raised.value) == str(error)

    def test_one_order_is_a_float_and_a_sequence_a_list(self):
        p = MarkovSource.of([[0.9, 0.1], [0.2, 0.8]])
        q = MarkovSource.of([[0.7, 0.3], [0.4, 0.6]])
        value = cross_entropy_rate(p, q, 2.0)
        assert isinstance(value, float)
        assert cross_entropy_rate(p, q, [2.0]) == [value]
        assert cross_entropy_rate(p, q, np.array([2.0, 2.0])) == [value, value]
        assert cross_entropy_rate(p, q, []) == []

    def test_earliest_failing_order_raises(self):
        p = MarkovSource.of([[0.9, 0.1], [0.2, 0.8]])
        q = MarkovSource.of([[1.0, 0.0], [0.4, 0.6]])
        at_one, at_two = cross_entropy_rate(p, q, [1.0, 2.0])
        assert at_one == math.inf and math.isfinite(at_two)  # a forbidden move at t = 0
        with pytest.raises(ZeroMassError):
            cross_entropy_rate(p, q, [2.0, 0.5, -1.0])
        with pytest.raises(InvalidAlphaError, match="positive"):
            cross_entropy_rate(p, q, [2.0, -1.0, 0.5])
        with pytest.raises(InvalidAlphaError, match="infinity"):
            cross_entropy_rate(p, q, [2.0, AlphaOrder.inf()])


class TestPerronStack:
    def test_members_match_lone_solves(self):
        rng = np.random.default_rng(7)
        stack = rng.uniform(0.1, 1.0, (5, 4, 4))
        lam, v = perron_eigenpair(stack)
        for m, lam_m, v_m in zip(stack, lam, v):
            want_lam, want_v = perron_eigenpair(m)
            assert abs(lam_m - want_lam) <= 2 * np.spacing(want_lam)
            np.testing.assert_allclose(v_m, want_v, rtol=1e-14)

    def test_members_with_different_irreducible_patterns(self):
        cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
        full = np.array([[0.5, 0.5], [0.5, 0.5]])
        lam, _ = perron_eigenpair(np.stack([cycle, full]))
        np.testing.assert_allclose(lam, [1.0, 1.0], rtol=1e-14)

    def test_one_reducible_member_is_rejected(self):
        # the members do not share one pattern, and only the second has
        # two classes
        full = np.array([[0.5, 0.5], [0.5, 0.5]])
        triangular = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(NotIrreducibleError, match="has 2 communication classes"):
            perron_eigenpair(np.stack([full, triangular, full]))


# --------------------------------------------------------------------------
# Gaussian processes

def _ma_autocov(draw):
    """Autocovariance of a short moving average, strictly positive spectrum."""
    taps = np.array([1.0] + [draw(_unit(-0.3, 0.3)) for _ in range(draw(st.integers(1, 3)))])
    r = np.correlate(taps, taps, mode="full")[taps.size - 1:]
    return r * draw(_unit(0.5, 2.0))


@st.composite
def process(draw):
    kind = draw(st.sampled_from(["white", "ar1", "acov"]))
    if kind == "white":
        return StationaryGaussianSpec.white_noise(draw(_unit(0.3, 3.0)))
    if kind == "ar1":
        return StationaryGaussianSpec.ar1(draw(_unit(-0.8, 0.8)), draw(_unit(0.3, 3.0)))
    return StationaryGaussianSpec.from_autocovariance(_ma_autocov(draw))


@st.composite
def gauss_grids(draw):
    x, y = draw(process()), draw(process())
    w = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    from rxent.gaussproc import psd

    # h = g + t f first touches 0 at t = -1 / max(f/g)
    edge = 1.0 - 1.0 / float(np.max(psd(x, w) / psd(y, w)))
    return x, y, _grid(draw, edge)


class TestGaussGrid:
    @PROPERTY
    @given(gauss_grids())
    def test_each_entry_is_the_one_order_call(self, case):
        x, y, grid = case
        one, error = _one_by_one(lambda a: rate_spectral(x, y, a), grid)
        if error is None:
            _same(rate_spectral(x, y, grid), one)
        else:
            with pytest.raises(type(error)) as raised:
                rate_spectral(x, y, grid)
            assert str(raised.value) == str(error)

    def test_more_orders_than_a_chunk(self):
        x = StationaryGaussianSpec.ar1(0.5, 1.3)
        y = StationaryGaussianSpec.white_noise(0.8)
        grid = [0.05 * i for i in range(1, 201)]
        _same(rate_spectral(x, y, grid), [rate_spectral(x, y, a) for a in grid])


# --------------------------------------------------------------------------
# Multivariate Gaussian

@st.composite
def spd(draw, d):
    a = np.array([[draw(_unit(-1.0, 1.0)) for _ in range(d)] for _ in range(d)])
    return a @ a.T + draw(_unit(0.2, 2.0)) * np.eye(d)


@st.composite
def mvgauss_grids(draw):
    d = draw(st.integers(2, 4))
    cov1, cov2 = draw(spd(d)), draw(spd(d))
    lam = np.linalg.eigvals(np.linalg.solve(cov2, cov1)).real
    return cov1, cov2, _grid(draw, 1.0 - 1.0 / float(lam.max()))


class TestMultivariateGaussianGrid:
    @PROPERTY
    @given(mvgauss_grids())
    def test_each_entry_is_the_one_order_call(self, case):
        cov1, cov2, grid = case
        seq = cross_entropy_multivariate_gaussian(cov1, cov2, grid)
        one = [cross_entropy_multivariate_gaussian(cov1, cov2, a) for a in grid]
        assert seq == one  # value, method and verdict

    def test_empty_covariances(self):
        empty = np.zeros((0, 0))
        values = [r.value for r in cross_entropy_multivariate_gaussian(empty, empty, [0.5, 1, 2])]
        assert values == [0.0, 0.0, 0.0] and cross_entropy_multivariate_gaussian(
            empty, empty, 2.0).value == 0.0

    def test_inf_order_raises_after_validation(self):
        cov = np.eye(2)
        with pytest.raises(InvalidAlphaError, match="infinity"):
            cross_entropy_multivariate_gaussian(cov, cov, [2.0, "inf"])
