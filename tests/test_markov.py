import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    DegenerateRateError,
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidParameterError,
    MarkovSource,
    NotIrreducibleError,
    ZeroMassError,
    cross_entropy_rate,
    finite_n_cross_entropy,
    perron_eigenvalue,
    shannon_rate_slope,
)
from rxent.markov import build_weighted, classify, perron_eigenpair, scaled_power

P_CHAIN = np.array([[0.9, 0.1], [0.2, 0.8]])
Q_CHAIN = np.array([[0.7, 0.3], [0.4, 0.6]])


def two_state_perron(m):
    (a, b), (c, d) = m
    return 0.5 * ((a + d) + math.sqrt((a - d) ** 2 + 4 * b * c))


class TestMarkovSource:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MarkovSource.of(np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidParameterError):
            MarkovSource.of(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(InvalidParameterError):
            MarkovSource.of(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(DimensionMismatchError):
            MarkovSource.of(P_CHAIN, [1.0, 0.0, 0.0])

    def test_default_start_is_uniform(self):
        src = MarkovSource.of(P_CHAIN)
        assert_allclose(src.initial.probs, 0.5)
        assert src.num_states == 2

    def test_immutable(self):
        src = MarkovSource.of(P_CHAIN)
        with pytest.raises(ValueError):
            src.transition[0, 0] = 0.5


class TestBuildWeighted:
    def test_entries(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        w = build_weighted(p, q, 3.0)
        assert_allclose(w.entries, P_CHAIN * Q_CHAIN**2)
        assert_allclose(w.start, 0.5 * 0.5**2)

    def test_zero_reference_below_one(self):
        q = MarkovSource.of(np.array([[1.0, 0.0], [0.5, 0.5]]))
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(ZeroMassError):
            build_weighted(p, q, 0.5)
        # fine above 1: the zero cell just contributes nothing
        w = build_weighted(p, q, 2.0)
        assert w.entries[0, 1] == 0.0

    def test_markers_rejected(self):
        p = MarkovSource.of(P_CHAIN)
        for a in (AlphaOrder.one(), AlphaOrder.inf()):
            with pytest.raises(InvalidAlphaError):
                build_weighted(p, p, a)


class TestClassify:
    def test_irreducible(self):
        s = classify(P_CHAIN)
        assert len(s.classes) == 1
        assert s.self_communicating == (True,)

    def test_block_triangular(self):
        m = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.3, 0.7]])
        s = classify(m)
        assert len(s.classes) == 2
        assert all(s.self_communicating)
        by_states = {frozenset(c) for c in s.classes}
        assert by_states == {frozenset({0, 1}), frozenset({2})}
        # the singleton {2} can reach the closed block {0, 1}, not vice versa
        c2 = next(i for i, c in enumerate(s.classes) if set(c) == {2})
        c01 = 1 - c2
        assert s.reach[c2, c01] and not s.reach[c01, c2]

    def test_transient_singleton(self):
        m = np.array([[0.0, 1.0], [0.0, 1.0]])
        s = classify(m)
        flags = dict(zip((frozenset(c) for c in s.classes), s.self_communicating))
        assert flags[frozenset({0})] is False and flags[frozenset({1})] is True


class TestPerron:
    def test_two_state_analytic(self):
        m = P_CHAIN * Q_CHAIN**2
        lam, v = perron_eigenpair(m)
        assert_allclose(lam, two_state_perron(m), rtol=1e-12)
        assert np.all(v > 0)
        assert_allclose(m @ v, lam * v, atol=1e-12 * lam)

    def test_stochastic_matrix_gives_one(self):
        assert_allclose(perron_eigenvalue(P_CHAIN), 1.0, rtol=1e-12)

    def test_periodic_matrix(self):
        # the two-cycle has eigenvalues +-1; the diagonal shift still
        # isolates the Perron root
        lam, v = perron_eigenpair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(lam, 1.0, rtol=1e-12)
        assert_allclose(v, [0.5, 0.5], atol=1e-10)

    def test_single_state(self):
        lam, v = perron_eigenpair(np.array([[0.7]]))
        assert lam == 0.7 and v[0] == 1.0

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError):
            perron_eigenpair(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            perron_eigenpair(np.array([[1.0, -0.1], [0.5, 0.5]]))

    def test_scale_equivariance(self):
        m = P_CHAIN * Q_CHAIN**2
        assert_allclose(perron_eigenvalue(3.0 * m), 3.0 * perron_eigenvalue(m),
                        rtol=1e-12)


class TestRate:
    def test_self_pair_order_three(self):
        p = MarkovSource.of(np.array([[0.9, 0.1], [0.2, 0.8]]))
        rate = cross_entropy_rate(p, p, 3.0)
        lam = two_state_perron(p.transition**3)
        assert_allclose(lam, 0.7290368600983095, rtol=1e-12)
        assert_allclose(rate, math.log(lam) / (1.0 - 3.0), rtol=1e-12)
        assert_allclose(rate, 0.15801549285130007, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
    def test_two_state_analytic(self, a):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        lam = two_state_perron(P_CHAIN * Q_CHAIN ** (a - 1.0))
        assert_allclose(cross_entropy_rate(p, q, a), math.log(lam) / (1.0 - a),
                        rtol=1e-10)

    @pytest.mark.parametrize("a", [0.5, "one", 2.0, 5.0])
    def test_uniform_reference_is_log_alphabet(self, a):
        # R = P / K^(alpha-1) has row sums K^(1-alpha), so lambda is
        # K^(1-alpha) and the rate is ln K at every order
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.1, 1.0, size=(4, 4))
        p = MarkovSource.of(raw / raw.sum(axis=1, keepdims=True))
        q = MarkovSource.of(np.full((4, 4), 0.25))
        assert_allclose(cross_entropy_rate(p, q, a), math.log(4.0), rtol=1e-9)

    def test_reducible_depends_on_start(self):
        t = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.3, 0.7]])
        q = MarkovSource.of(t)
        # uniform start sees both classes: lambda = max(0.25, 0.343)
        p_all = MarkovSource.of(t)
        assert_allclose(
            cross_entropy_rate(p_all, q, 3.0), math.log(0.343) / (1 - 3), rtol=1e-10
        )
        # start confined to the closed block {0, 1}: lambda = 0.25
        p_block = MarkovSource.of(t, [0.5, 0.5, 0.0])
        assert_allclose(
            cross_entropy_rate(p_block, q, 3.0), math.log(0.25) / (1 - 3), rtol=1e-10
        )

    def test_degenerate_products(self):
        p = MarkovSource.of(np.array([[0.0, 1.0], [0.0, 1.0]]))
        q = MarkovSource.of(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateRateError):
            cross_entropy_rate(p, q, 2.0)
        assert finite_n_cross_entropy(p, q, 2.0, 8) == math.inf

    def test_alpha_inf_rejected(self):
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(InvalidAlphaError):
            cross_entropy_rate(p, p, AlphaOrder.inf())


class TestShannonSlope:
    def test_matches_stationary_formula(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])  # stationary for P_CHAIN
        expected = float(pi @ (-(P_CHAIN * np.log(Q_CHAIN)).sum(axis=1)))
        assert_allclose(shannon_rate_slope(p, q), expected, rtol=1e-12)

    def test_rate_dispatches_marker(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        assert cross_entropy_rate(p, q, "one") == shannon_rate_slope(p, q)

    def test_infinite_on_impossible_transition(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert shannon_rate_slope(p, q) == math.inf

    def test_continuity_near_one(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        slope = shannon_rate_slope(p, q)
        for a in (1.0 + 1e-4, 1.0 - 1e-4):
            assert_allclose(cross_entropy_rate(p, q, a), slope, atol=1e-3)


class TestFiniteBlocks:
    def test_single_step_is_start_term(self):
        p = MarkovSource.of(P_CHAIN, [1.0, 0.0])
        q = MarkovSource.of(Q_CHAIN, [0.5, 0.5])
        # n = 1: (1/(1-a)) ln sum_i p_i q_i^(a-1)
        expected = math.log(1.0 * 0.5) / (1.0 - 2.0)
        assert_allclose(finite_n_cross_entropy(p, q, 2.0, 1), expected, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
    def test_converges_to_rate(self, a):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        limit = cross_entropy_rate(p, q, a)
        assert abs(finite_n_cross_entropy(p, q, a, 4000) - limit) < 5e-3

    def test_long_blocks_stay_finite(self):
        # scaled powering keeps n = 10^4 in floating range even though the
        # raw product underflows
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        v = finite_n_cross_entropy(p, q, 5.0, 10_000)
        assert math.isfinite(v)

    def test_invalid_n(self):
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(InvalidParameterError):
            finite_n_cross_entropy(p, p, 2.0, 0)


def stepped_power(m, k):
    """m^k as (M, ln c) by k renormalized single steps."""
    result, log_scale = np.eye(m.shape[0]), 0.0
    for _ in range(k):
        result = result @ m
        norm = result.sum(axis=1).max()
        result, log_scale = result / norm, log_scale + math.log(norm)
    return result, log_scale


def stepped_slope(p_src, q_src, n=4096):
    row_cost = -(p_src.transition * np.log(q_src.transition)).sum(axis=1)
    mu = p_src.initial.probs.copy()
    for _ in range(n - 2):
        mu = mu @ p_src.transition
    return float(mu @ row_cost)


def random_source(rng, k):
    raw = rng.uniform(0.05, 1.0, size=(k, k))
    return MarkovSource.of(raw / raw.sum(axis=1, keepdims=True))


class TestScaledPower:
    @pytest.mark.parametrize("k", [1, 2, 3, 1000])
    def test_matches_stepped_power(self, k):
        rng = np.random.default_rng(k)
        for size in (2, 5, 16):
            m = rng.uniform(0.0, 3.0, size=(size, size))
            m[rng.uniform(size=m.shape) < 0.3] = 0.0
            m[np.arange(size), (np.arange(size) + 1) % size] += 0.5  # irreducible
            power, log_scale = scaled_power(m, k)
            expected, expected_log = stepped_power(m, k)
            assert_allclose(log_scale, expected_log, rtol=1e-12)
            assert_allclose(power, expected, rtol=1e-11, atol=1e-300)

    def test_zeroth_power_is_identity(self):
        power, log_scale = scaled_power(np.zeros((3, 3)), 0)
        assert_allclose(power, np.eye(3))
        assert log_scale == 0.0

    def test_vanishing_power(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        power, log_scale = scaled_power(nilpotent, 2)
        assert not power.any() and log_scale == 0.0

    def test_entries_stay_in_range(self):
        power, log_scale = scaled_power(np.full((2, 2), 1e-3), 10_000)
        assert power.max() == pytest.approx(0.5)
        assert_allclose(log_scale, 10_000 * math.log(2e-3), rtol=1e-12)


class TestStructuredKernelsMatchSteps:
    def test_slope_matches_stepped_occupation(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 8, 32):
            p, q = random_source(rng, k), random_source(rng, k)
            for n in (2, 3, 4096):
                assert_allclose(shannon_rate_slope(p, q, n), stepped_slope(p, q, n),
                                rtol=1e-12)

    def test_unreachable_stronger_class_does_not_scale_start_away(self):
        # the start sits in the weak block {0}; the block {1} is 1000 times
        # heavier but unreachable, and 1e-3^4000 underflows any shared scale
        p = MarkovSource.of(np.eye(2), [1.0, 0.0])
        q = MarkovSource.of(np.array([[0.5, 0.5], [1e-3, 1.0 - 1e-3]]))
        expected = -math.log(0.5)
        assert_allclose(finite_n_cross_entropy(p, q, 2.0, 4000), expected, rtol=1e-12)
