"""The Shannon limit alpha = 1 from each target's own order-alpha formula.

Every value is a function of t = alpha - 1 without a 1/(1 - alpha)
cancellation, so t = 0 gives the Shannon value from the same code.  Checked
here: values at 1 +/- 1e-8 stay within 5e-8 of the value at 1 (inputs are
drawn with moderate log-densities, whose first derivative in t is small),
and so do the MGF reducers for every source family they accept, also at
1 +/- 1.01e-9 and 1 +/- 1e-12; the closed and natural routes agree through
t = 0, masses with the accepted 1e-12 of slack keep their Shannon value,
and chains whose Shannon rate the block-entropy slope missed (periodic, or
a forbidden move in a state the start never reaches) get it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    DiscreteDistribution,
    ExpFamilyDistribution as E,
    MarkovSource,
    StationaryGaussianSpec as S,
    cross_entropy_closed,
    cross_entropy_multivariate_gaussian,
    cross_entropy_natural,
    cross_entropy_p_uniform,
    cross_entropy_q_exponential,
    cross_entropy_q_gaussian,
    cross_entropy_rate,
    mgf_of,
    mgf_of_centered_square,
    rate_spectral,
    renyi_cross_entropy,
    renyi_divergence,
    renyi_entropy,
)
from rxent.support import UNIT_INTERVAL

ONE = AlphaOrder.one()
NEAR = (1.0 + 1e-8, 1.0 - 1e-8)
NEAR_ALL = NEAR + (1.0 + 1.01e-9, 1.0 - 1.01e-9, 1.0 + 1e-12, 1.0 - 1e-12)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _near_one(value_at):
    at_one = value_at(ONE)
    return at_one, [abs(value_at(a) - at_one) for a in NEAR]


def _class_cost(p, q, block):
    """Shannon rate of a closed class: its stationary law against the
    expected cost -sum_j P_ij ln Q_ij of each of its rows."""
    pc = p[block, block]
    values, vectors = np.linalg.eig(pc.T)
    pi = np.abs(vectors[:, np.argmin(np.abs(values - 1.0))])
    return float(pi / pi.sum() @ -(pc * np.log(q[block, block])).sum(axis=1))


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def masses(draw, k):
    raw = np.array(draw(st.lists(_unit(0.05, 1.0), min_size=k, max_size=k)))
    return raw / raw.sum()


@st.composite
def mass_pairs(draw):
    k = draw(st.integers(2, 8))
    return draw(masses(k)), draw(masses(k))


@st.composite
def chains(draw, k):
    return np.array([draw(masses(k)) for _ in range(k)])


@st.composite
def chain_pairs(draw):
    k = draw(st.integers(2, 5))
    return draw(chains(k)), draw(chains(k))


def _member(draw, family):
    if family == "gaussian":
        return E.gaussian(draw(_unit(-0.5, 0.5)), draw(_unit(0.8, 1.25)))
    if family == "exponential":
        return E.exponential(draw(_unit(0.7, 1.4)))
    if family == "laplace":
        return E.laplace(0.3, draw(_unit(0.7, 1.4)))
    if family == "gamma":
        return E.gamma(draw(_unit(2.0, 3.0)), draw(_unit(0.8, 1.25)))
    if family == "chi_squared":
        return E.chi_squared(draw(_unit(3.0, 6.0)))
    return E.beta(draw(_unit(1.5, 3.0)), draw(_unit(1.5, 3.0)))


FAMILIES = ["beta", "chi_squared", "exponential", "gamma", "gaussian", "laplace"]
POSITIVE_FAMILIES = ["beta", "chi_squared", "exponential", "gamma"]


@st.composite
def family_pairs(draw):
    family = draw(st.sampled_from(FAMILIES))
    return _member(draw, family), _member(draw, family)


@st.composite
def covariances(draw):
    a, b = draw(_unit(0.8, 1.25)), draw(_unit(0.8, 1.25))
    c = draw(_unit(-0.3, 0.3)) * math.sqrt(a * b)
    return np.array([[a, c], [c, b]])


class TestContinuityThroughOne:
    @PROPERTY
    @given(mass_pairs())
    def test_discrete(self, pair):
        p, q = (DiscreteDistribution(v) for v in pair)
        for measure in (lambda a: renyi_cross_entropy(p, q, a),
                        lambda a: renyi_entropy(p, a),
                        lambda a: renyi_divergence(p, q, a)):
            _, gaps = _near_one(measure)
            assert max(gaps) <= 5e-8

    @PROPERTY
    @given(family_pairs())
    def test_exponential_families_both_routes(self, pair):
        f1, f2 = pair
        for route in (cross_entropy_closed, cross_entropy_natural):
            _, gaps = _near_one(lambda a: route(f1, f2, a).value)
            assert max(gaps) <= 5e-8, route.__name__

    @PROPERTY
    @given(covariances(), covariances())
    def test_multivariate_gaussian(self, c1, c2):
        _, gaps = _near_one(lambda a: cross_entropy_multivariate_gaussian(c1, c2, a).value)
        assert max(gaps) <= 5e-8

    @PROPERTY
    @given(_unit(0.7, 1.5), _unit(0.7, 1.5))
    def test_uniform_source(self, a, b):
        q = E.beta(a, b)
        _, gaps = _near_one(lambda x: cross_entropy_p_uniform(UNIT_INTERVAL, q, x).value)
        assert max(gaps) <= 5e-8

    @PROPERTY
    @given(chain_pairs())
    def test_irreducible_markov(self, pair):
        p, q = (MarkovSource.of(m) for m in pair)
        _, gaps = _near_one(lambda a: cross_entropy_rate(p, q, a))
        assert max(gaps) <= 5e-8

    @PROPERTY
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_reducible_markov_one_sided_per_class(self, k1, k2, data):
        # a transient state feeds two closed classes: the rate tends to the
        # smaller class rate from above 1 and to the larger from below, and
        # at 1 it is the mean of the two weighted by absorption
        k = 1 + k1 + k2
        p, q = np.zeros((k, k)), data.draw(chains(k))
        p[0] = data.draw(masses(k))
        blocks = [slice(1, 1 + k1), slice(1 + k1, k)]
        for block in blocks:
            p[block, block] = data.draw(chains(block.stop - block.start))
        costs = [_class_cost(p, q, block) for block in blocks]
        src, ref = MarkovSource.of(p), MarkovSource.of(q)
        assert abs(cross_entropy_rate(src, ref, NEAR[0]) - min(costs)) <= 5e-8
        assert abs(cross_entropy_rate(src, ref, NEAR[1]) - max(costs)) <= 5e-8
        start, into = np.full(k, 1.0 / k), p[0, 1:] / (1.0 - p[0, 0])
        weights = start[1:] + start[0] * into
        mean = weights[:k1].sum() * costs[0] + weights[k1:].sum() * costs[1]
        assert_allclose(cross_entropy_rate(src, ref, ONE), mean, rtol=1e-13)

    @PROPERTY
    @given(_unit(-0.5, 0.5), _unit(0.8, 1.25), _unit(0.8, 1.25))
    def test_gaussian_process(self, rho, v, w):
        x, y = S.ar1(rho, v), S.white_noise(w)
        _, gaps = _near_one(lambda a: rate_spectral(x, y, a))
        assert max(gaps) <= 5e-8


def _mean_variance(p):
    """Mean and variance of a scalar member: its MGF quotients at 0."""
    mean = mgf_of(p).quotient(0.0)
    return mean, mgf_of_centered_square(p, mean).quotient(0.0)


def _reducer_gaps(value_at, mgf):
    """Gaps to the value at 1 over NEAR_ALL.  A centered square that is
    finite only for s <= 0 (an exponential tail against a Gaussian
    reference) makes every order below 1 the divergence verdict instead."""
    at_one = value_at(ONE)
    gaps = []
    for a in NEAR_ALL:
        if a < 1.0 and not mgf.contains(1e-300):
            assert value_at(a) == math.inf
        else:
            gaps.append(abs(value_at(a) - at_one))
    return gaps


class TestReducersThroughOne:
    """const + c Q(s), one formula through alpha = 1.  The reference scales
    follow the source's, so that the slope in alpha (rate^2 Var X / 2, or
    Var Y / (8 var^2) for Y the centered square) stays below about 3."""

    @PROPERTY
    @given(st.sampled_from(POSITIVE_FAMILIES), _unit(0.5, 2.0), st.data())
    def test_q_exponential(self, family, u, data):
        p = _member(data.draw, family)
        m, rate = mgf_of(p), u / math.sqrt(_mean_variance(p)[1])
        gaps = _reducer_gaps(lambda a: cross_entropy_q_exponential(m, rate, a).value, m)
        assert max(gaps) <= 5e-8

    @PROPERTY
    @given(st.sampled_from(FAMILIES), _unit(-1.0, 1.0), _unit(1.0, 2.0), st.data())
    def test_q_gaussian(self, family, shift, k, data):
        p = _member(data.draw, family)
        mean, var = _mean_variance(p)
        center = mean + shift * math.sqrt(var)
        m = mgf_of_centered_square(p, center)
        gaps = _reducer_gaps(lambda a: cross_entropy_q_gaussian(m, center, k * var, a).value, m)
        assert max(gaps) <= 5e-8

    @PROPERTY
    @given(st.sampled_from(POSITIVE_FAMILIES), _unit(1.0, 2.0), st.data())
    def test_q_half_normal(self, family, k, data):
        p = _member(data.draw, family)
        m = mgf_of_centered_square(p, 0.0)
        var = k * m.quotient(0.0)
        gaps = _reducer_gaps(
            lambda a: cross_entropy_q_gaussian(m, 0.0, var, a, half_normal=True).value, m)
        assert max(gaps) <= 5e-8

    @pytest.mark.parametrize("p", [E.gamma(2.5, 0.7), E.exponential(1.3), E.beta(2.0, 3.0)],
                             ids=repr)
    def test_sources_that_lost_digits_next_to_one(self, p):
        # against N(0.5, 2), where ln M / (1 - alpha) was 8.6e-5 (Gamma),
        # 5.8e-7 (exponential) and 1.1e-8 (Beta) off at 1 + 1.01e-9
        m = mgf_of_centered_square(p, 0.5)
        gaps = _reducer_gaps(lambda a: cross_entropy_q_gaussian(m, 0.5, 2.0, a).value, m)
        assert max(gaps) <= 5e-8


class TestRoutesAgreeThroughOne:
    @PROPERTY
    @given(family_pairs())
    def test_closed_equals_natural(self, pair):
        f1, f2 = pair
        for t in (0.0, 1.01e-9, -1.01e-9):
            a = ONE if t == 0.0 else 1.0 + t
            closed = cross_entropy_closed(f1, f2, a).value
            natural = cross_entropy_natural(f1, f2, a).value
            assert abs(closed - natural) <= 1e-12 * max(1.0, abs(closed))

    @PROPERTY
    @given(covariances(), covariances())
    def test_multivariate_closed_equals_natural(self, c1, c2):
        for t in (0.0, 1.01e-9, -1.01e-9):
            a = ONE if t == 0.0 else 1.0 + t
            closed = cross_entropy_multivariate_gaussian(c1, c2, a).value
            natural = cross_entropy_natural(E.mv_gaussian(c1), E.mv_gaussian(c2), a).value
            assert abs(closed - natural) <= 1e-12 * max(1.0, abs(closed))


class TestMassSlack:
    """Masses and rows may sum to 1 within 1e-12; near alpha = 1 that slack
    must not reach the value as ln(sum p) / (1 - alpha)."""

    P = np.array([0.2, 0.3, 0.5 + 9e-13])
    Q = np.array([0.6, 0.1, 0.3])

    @pytest.mark.parametrize("a", [1.0 + 1.01e-9, 1.0 - 1.01e-9])
    def test_discrete(self, a):
        p, q = DiscreteDistribution(self.P), DiscreteDistribution(self.Q)
        at_one = renyi_cross_entropy(p, q, ONE)
        assert_allclose(at_one, -(self.P * np.log(self.Q)).sum(), rtol=1e-15)
        assert abs(renyi_cross_entropy(p, q, a) - at_one) <= 5e-8

    @pytest.mark.parametrize("a", [1.0 + 1.01e-9, 1.0 - 1.01e-9])
    def test_markov(self, a):
        rows = np.array([self.P, [0.5, 0.25, 0.25], [0.1, 0.6, 0.3]])
        p, q = MarkovSource.of(rows), MarkovSource.of(np.tile(self.Q, (3, 1)))
        at_one = cross_entropy_rate(p, q, ONE)
        assert abs(cross_entropy_rate(p, q, a) - at_one) <= 5e-8

    # masses short of 1 by the slack, on symbols where the other side has none
    @pytest.mark.parametrize("p", [[0.7, 0.2, 0.1, 0.0], [0.7, 0.2, 0.1 - 1e-13, 0.0]])
    @pytest.mark.parametrize("a", [1.0 + 1.01e-9, 1.05, 1.2, 1.45])
    def test_disjoint_cross_entropy_stays_infinite(self, p, a):
        q = DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0]))
        assert renyi_cross_entropy(DiscreteDistribution(np.array(p)), q, a) == math.inf

    @pytest.mark.parametrize("p", [[0.7, 0.2, 0.1, 0.0], [0.7, 0.2, 0.1 - 1e-13, 0.0]])
    @pytest.mark.parametrize("a", [0.55, 0.8, 0.95, 1.0 - 1.01e-9])
    def test_disjoint_divergence_stays_infinite(self, p, a):
        q = DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0]))
        assert renyi_divergence(DiscreteDistribution(np.array(p)), q, a) == math.inf

    @pytest.mark.parametrize("a", [1.2, 1.45])
    def test_overlap_at_the_slack_scale(self, a):
        # sum p q^t is 1e-15: the value is ln(1e-15) / (1 - alpha) to full
        # precision, not the slack read as overlap
        p = DiscreteDistribution(np.array([0.7, 0.2, 0.1 - 1e-13 - 1e-15, 1e-15, 0.0]))
        q = DiscreteDistribution(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
        assert_allclose(renyi_cross_entropy(p, q, a), math.log(1e-15) / (1.0 - a), rtol=1e-13)


class TestMarkovShannonRate:
    def test_periodic_two_cycle(self):
        # the stationary law (1/2, 1/2) of the 2-cycle prices one move of
        # each row: (ln 2 + ln 1000) / 2 at every order, alpha = 1 included
        p = MarkovSource.of(np.array([[0.0, 1.0], [1.0, 0.0]]), [1.0, 0.0])
        q = MarkovSource.of(np.array([[0.5, 0.5], [0.001, 0.999]]))
        want = (math.log(2.0) + math.log(1000.0)) / 2.0
        for a in (ONE, 0.5, 1.0 + 1e-8, 2.0):
            assert_allclose(cross_entropy_rate(p, q, a), want, rtol=1e-14)

    def test_forbidden_move_in_an_unreachable_state(self):
        # state 2 has no start mass and is never entered; its reference row
        # forbids the move 2 -> 0 the source makes from it
        rows = np.array([[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [1.0, 0.0, 0.0]])
        ref = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.0, 0.5, 0.5]])
        p = MarkovSource.of(rows, [0.5, 0.5, 0.0])
        q = MarkovSource.of(ref)
        pi = np.array([3.0, 4.0]) / 7.0  # stationary law of the block {0, 1}
        want = float(pi @ -(rows[:2, :2] * np.log(ref[:2, :2])).sum(axis=1))
        assert_allclose(cross_entropy_rate(p, q, ONE), want, rtol=1e-14)


class TestGaussianShannonRate:
    @pytest.mark.parametrize("rho, v, w", [(0.6, 1.3, 2.0), (-0.9, 0.4, 0.7), (0.0, 1.0, 1.0)])
    def test_white_reference(self, rho, v, w):
        # mean of ln g + f / g over the circle: ln w + v / w
        want = 0.5 * math.log(2 * math.pi) + 0.5 * (math.log(w) + v / w)
        assert_allclose(rate_spectral(S.ar1(rho, v), S.white_noise(w), ONE), want, rtol=1e-14)

    def test_sweep_through_one(self):
        x, y = S.ar1(0.6), S.white_noise(1.5)
        values = [rate_spectral(x, y, a) for a in (0.9, 1.0 - 1e-8, ONE, 1.0 + 1e-8, 1.1)]
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))
