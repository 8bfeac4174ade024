import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    DoubleRangeError,
    ExpFamilyDistribution,
    InfiniteSupportError,
    InvalidAlphaError,
    InvalidParameterError,
    Method,
    MgfFunction,
    cross_entropy_closed,
    cross_entropy_multivariate_gaussian,
    cross_entropy_natural,
    cross_entropy_numeric,
    cross_entropy_p_uniform,
    cross_entropy_q_exponential,
    cross_entropy_q_gaussian,
    cross_entropy_q_uniform,
    mgf_of,
    mgf_of_centered_square,
)
from rxent.oracle import cross_entropy_grid2d_gaussian
from rxent.support import ALL_REALS, POSITIVE_REALS, SupportKind, SupportSpec

E = ExpFamilyDistribution

FAMILY_PAIRS = [
    (E.beta(2.5, 3.5), E.beta(1.5, 2.0)),
    (E.chi_squared(4.0), E.chi_squared(6.0)),
    (E.exponential(2.0), E.exponential(3.0)),
    (E.gamma(2.5, 1.2), E.gamma(1.5, 2.0)),
    (E.gaussian(0.3, 1.7), E.gaussian(-0.4, 0.8)),
    (E.laplace(0.5, 1.5), E.laplace(0.5, 0.7)),
]


def mp_logpdf(d):
    """Log-density of a scalar member in mpmath, with its integration breakpoints."""
    fam, p = d.family.value, [mp.mpf(v) for v in d.params]
    if fam == "beta":
        a, b = p
        return (lambda x: (a - 1) * mp.log(x) + (b - 1) * mp.log1p(-x) - mp.log(mp.beta(a, b)),
                [0, 1])
    if fam == "chi_squared":
        nu, = p
        return (lambda x: (nu / 2 - 1) * mp.log(x) - x / 2 - nu / 2 * mp.log(2)
                - mp.loggamma(nu / 2), [0, mp.inf])
    if fam == "exponential":
        lam, = p
        return lambda x: mp.log(lam) - lam * x, [0, mp.inf]
    if fam == "gamma":
        k, th = p
        return (lambda x: (k - 1) * mp.log(x) - x / th - mp.loggamma(k) - k * mp.log(th),
                [0, mp.inf])
    if fam == "gaussian":
        mu, v = p
        return lambda x: -(x - mu) ** 2 / (2 * v) - mp.log(2 * mp.pi * v) / 2, [-mp.inf, mp.inf]
    mu, s = p
    return lambda x: -abs(x - mu) / s - mp.log(2 * s), [-mp.inf, mu, mp.inf]


def mp_shannon(f1, f2):
    """-integral f1 ln f2 by mpmath quadrature at 30 digits."""
    lp1, points = mp_logpdf(f1)
    lp2, _ = mp_logpdf(f2)
    with mp.workdps(30):
        return float(mp.quad(lambda x: -mp.exp(lp1(x)) * lp2(x), points))


class TestFrozenValues:
    """Hand-derived constants pin the closed forms to fixed digits."""

    def test_gaussian_self_pair(self):
        # standard normal against itself at order 2: (1/2) ln 4 pi
        r = cross_entropy_closed(E.gaussian(0, 1), E.gaussian(0, 1), 2.0)
        assert_allclose(r.value, 1.2655121234846454, rtol=1e-14)

    def test_gaussian_shifted_pair(self):
        r = cross_entropy_closed(E.gaussian(0, 1), E.gaussian(1, 1), 2.0)
        assert_allclose(r.value, 1.5155121234846454, rtol=1e-14)

    def test_exponential_pair(self):
        r = cross_entropy_closed(E.exponential(2.0), E.exponential(3.0), 2.0)
        assert_allclose(r.value, math.log(5.0 / 6.0), rtol=1e-14)

    def test_laplace_self_pair(self):
        r = cross_entropy_closed(E.laplace(0, 1), E.laplace(0, 1), 2.0)
        assert_allclose(r.value, math.log(4.0), rtol=1e-14)

    def test_negative_value_possible(self):
        # a sharp enough self pair drives the order-2 value below zero
        v = 1.0 / (8.0 * math.sqrt(math.pi))
        r = cross_entropy_closed(E.gaussian(0, v), E.gaussian(0, v), 2.0)
        assert_allclose(r.value, -0.0603911188176226, atol=1e-15)
        assert r.value < 0


class TestClosedVsNatural:
    @pytest.mark.parametrize("pair", FAMILY_PAIRS, ids=lambda p: p[0].family.value)
    @pytest.mark.parametrize("a", [0.5, 0.9, 1.5, 2.0, 3.0])
    def test_agreement(self, pair, a):
        f1, f2 = pair
        closed = cross_entropy_closed(f1, f2, a)
        natural = cross_entropy_natural(f1, f2, a)
        if closed.diverged or natural.diverged:
            assert closed.diverged and natural.diverged
            assert closed.value == natural.value
        else:
            assert_allclose(natural.value, closed.value, rtol=1e-10, atol=1e-12)

    def test_methods_tagged(self):
        f1, f2 = FAMILY_PAIRS[4]
        assert cross_entropy_closed(f1, f2, 2.0).method is Method.CLOSED_FORM
        assert cross_entropy_natural(f1, f2, 2.0).method is Method.NATURAL_PARAMS

    def test_float_protocol(self):
        f1, f2 = FAMILY_PAIRS[2]
        r = cross_entropy_closed(f1, f2, 2.0)
        assert float(r) == r.value


class TestQuadratureAgreement:
    @pytest.mark.parametrize("pair", FAMILY_PAIRS, ids=lambda p: p[0].family.value)
    def test_order_two(self, pair):
        f1, f2 = pair
        closed = cross_entropy_closed(f1, f2, 2.0)
        numeric = cross_entropy_numeric(
            f1.support, AlphaOrder(2.0), p_logpdf=f1.logpdf, q_logpdf=f2.logpdf,
        )
        assert_allclose(numeric, closed.value, rtol=1e-8, atol=1e-10)

    def test_shannon_marker_gaussian_analytic(self):
        f1, f2 = E.gaussian(0.3, 1.7), E.gaussian(-0.4, 0.8)
        r = cross_entropy_closed(f1, f2, AlphaOrder.one())
        expected = 0.5 * (
            math.log(2 * math.pi * 0.8) + (1.7 + 0.7**2) / 0.8
        )
        assert_allclose(r.value, expected, rtol=1e-14)
        assert r.method is Method.CLOSED_FORM

    @pytest.mark.parametrize("pair", FAMILY_PAIRS, ids=lambda p: p[0].family.value)
    def test_shannon_marker_closed_natural_mpmath(self, pair):
        f1, f2 = pair
        closed = cross_entropy_closed(f1, f2, AlphaOrder.one())
        natural = cross_entropy_natural(f1, f2, AlphaOrder.one())
        assert closed.method is Method.CLOSED_FORM
        assert natural.method is Method.NATURAL_PARAMS
        assert_allclose(natural.value, closed.value, rtol=1e-12, atol=1e-12)
        assert_allclose(closed.value, mp_shannon(f1, f2), rtol=1e-12, atol=1e-12)

    def test_shannon_marker_exponential_analytic(self):
        r = cross_entropy_closed(E.exponential(2.0), E.exponential(3.0), "one")
        assert_allclose(r.value, -math.log(3.0) + 3.0 / 2.0, rtol=1e-9)

    def test_continuity_near_one(self):
        f1, f2 = E.gamma(2.5, 1.2), E.gamma(1.5, 2.0)
        at_one = cross_entropy_closed(f1, f2, AlphaOrder.one()).value
        for a in (1.0 + 1e-4, 1.0 - 1e-4):
            assert_allclose(cross_entropy_closed(f1, f2, a).value, at_one, atol=1e-3)


class TestDivergence:
    def test_below_one_is_plus_inf(self):
        r = cross_entropy_closed(E.exponential(1.0), E.exponential(4.0), 0.5)
        assert r.value == math.inf and r.diverged

    def test_gaussian_below_one(self):
        r = cross_entropy_closed(E.gaussian(0, 4), E.gaussian(0, 1), 0.5)
        assert r.value == math.inf and r.diverged

    def test_above_one_is_minus_inf(self):
        r = cross_entropy_closed(E.beta(2, 2), E.beta(0.2, 2), 4.0)
        assert r.value == -math.inf and r.diverged

    def test_natural_route_agrees_on_divergence(self):
        r = cross_entropy_natural(E.exponential(1.0), E.exponential(4.0), 0.5)
        assert r.value == math.inf and r.diverged

    def test_existence_boundary(self):
        # v_h = v2 + (alpha-1) v1 crosses zero at alpha = 3/4 here
        f1, f2 = E.gaussian(0, 4), E.gaussian(0, 1)
        assert cross_entropy_closed(f1, f2, 0.76).diverged is False
        assert cross_entropy_closed(f1, f2, 0.74).diverged is True

    def test_family_mismatch(self):
        with pytest.raises(InvalidParameterError):
            cross_entropy_closed(E.gaussian(0, 1), E.exponential(1.0), 2.0)

    def test_laplace_unequal_means_rejected(self):
        with pytest.raises(InvalidParameterError):
            cross_entropy_closed(E.laplace(0, 1), E.laplace(1, 1), 2.0)

    def test_alpha_inf_rejected(self):
        with pytest.raises(InvalidAlphaError):
            cross_entropy_closed(E.gaussian(0, 1), E.gaussian(0, 1), AlphaOrder.inf())


class TestBetaFallback:
    def test_no_fallback_below_one(self):
        # on the constant base measure the combined Beta parameter stays in
        # the domain whenever the defining integral converges
        f1, f2 = E.beta(0.6, 2.0), E.beta(1.5, 2.0)
        closed = cross_entropy_closed(f1, f2, 0.5)
        natural = cross_entropy_natural(f1, f2, 0.5)
        assert not closed.diverged
        assert natural.method is Method.NATURAL_PARAMS
        assert_allclose(natural.value, closed.value, rtol=1e-12)

    def test_true_divergence_not_masked(self):
        f1, f2 = E.beta(0.3, 2.0), E.beta(0.2, 2.0)
        # a_h = 0.3 - 0.5 * (-0.8) ... both routes must agree on existence
        closed = cross_entropy_closed(f1, f2, 0.5)
        natural = cross_entropy_natural(f1, f2, 0.5)
        assert closed.diverged == natural.diverged


class TestMultivariateGaussian:
    COV1 = np.array([[2.0, 0.6], [0.6, 1.0]])
    COV2 = np.array([[1.5, -0.3], [-0.3, 2.5]])

    # 0.6: K_1 - 0.4 K_2 of the inverse covariances is positive definite,
    # so the defining integral exists
    @pytest.mark.parametrize("a", [0.6, "shannon", 2.0, 8.0])
    def test_matches_grid_oracle(self, a):
        r = cross_entropy_multivariate_gaussian(self.COV1, self.COV2, a)
        grid = cross_entropy_grid2d_gaussian(self.COV1, self.COV2, a)
        assert_allclose(r.value, grid, rtol=1e-9)

    def test_scalar_reduction(self):
        r = cross_entropy_multivariate_gaussian(
            np.array([[1.7]]), np.array([[0.8]]), 2.0
        )
        scalar = cross_entropy_closed(E.gaussian(0, 1.7), E.gaussian(0, 0.8), 2.0)
        assert_allclose(r.value, scalar.value, rtol=1e-12)

    def test_shannon_marker_analytic(self):
        r = cross_entropy_multivariate_gaussian(self.COV1, self.COV2, "shannon")
        inv2 = np.linalg.inv(self.COV2)
        expected = 0.5 * (
            2 * math.log(2 * math.pi)
            + math.log(np.linalg.det(self.COV2))
            + np.trace(inv2 @ self.COV1)
        )
        assert_allclose(r.value, expected, rtol=1e-12)

    def test_divergence_below_one(self):
        r = cross_entropy_multivariate_gaussian(np.eye(2), 0.1 * np.eye(2), 0.5)
        assert r.value == math.inf and r.diverged

    def test_needs_spd(self):
        from rxent.errors import NotPositiveDefiniteError

        with pytest.raises(NotPositiveDefiniteError):
            cross_entropy_multivariate_gaussian(
                np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2), 2.0
            )

    def test_dimension_mismatch(self):
        from rxent.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            cross_entropy_multivariate_gaussian(np.eye(2), np.eye(3), 2.0)


class TestUniformReference:
    def test_value_is_log_length(self):
        supp = SupportSpec(SupportKind.INTERVAL, -1.0, 1.0)
        assert_allclose(cross_entropy_q_uniform(supp), math.log(2.0))

    def test_unit_interval_is_zero(self):
        from rxent.support import UNIT_INTERVAL

        assert cross_entropy_q_uniform(UNIT_INTERVAL) == 0.0

    def test_infinite_support_rejected(self):
        with pytest.raises(InfiniteSupportError):
            cross_entropy_q_uniform(ALL_REALS)


class TestUniformSource:
    def test_beta_reference_order_three(self):
        from rxent.support import UNIT_INTERVAL

        r = cross_entropy_p_uniform(UNIT_INTERVAL, E.beta(2, 2), 3.0)
        assert_allclose(r.value, -0.5 * math.log(6.0 / 5.0), rtol=1e-14)

    def test_order_two_is_log_length(self):
        # the integral of q over its support is exactly 1 at alpha = 2
        from rxent.support import UNIT_INTERVAL

        r = cross_entropy_p_uniform(UNIT_INTERVAL, E.beta(2, 2), 2.0)
        assert r.value == 0.0

    def test_shannon_marker(self):
        from rxent.support import UNIT_INTERVAL
        from scipy.special import betaln

        r = cross_entropy_p_uniform(UNIT_INTERVAL, E.beta(2, 2), "one")
        assert_allclose(r.value, 2.0 + betaln(2, 2), rtol=1e-14)

    def test_matches_quadrature(self):
        from rxent import QuadratureSettings
        from rxent.support import UNIT_INTERVAL

        q = E.beta(2.5, 3.5)
        # alpha below 1 - 1/min(qa-1, qb-1) would diverge; stay inside.
        # The alpha < 1 integrand has an endpoint singularity, so give the
        # quadrature a little slack there.
        loose = QuadratureSettings(relative_tolerance=1e-8)
        for a in (0.7, 2.0, 3.0):
            r = cross_entropy_p_uniform(UNIT_INTERVAL, q, a)
            numeric = cross_entropy_numeric(
                UNIT_INTERVAL, AlphaOrder(a), loose,
                p_logpdf=lambda x: 0.0 if 0 < x < 1 else -math.inf,
                q_logpdf=q.logpdf,
            )
            assert_allclose(r.value, numeric, rtol=1e-7, atol=1e-9)

    def test_divergence(self):
        from rxent.support import UNIT_INTERVAL

        r = cross_entropy_p_uniform(UNIT_INTERVAL, E.beta(0.2, 2.0), 4.0)
        assert r.value == -math.inf and r.diverged

    def test_non_beta_rejected(self):
        from rxent.support import UNIT_INTERVAL

        with pytest.raises(InvalidParameterError):
            cross_entropy_p_uniform(UNIT_INTERVAL, E.gaussian(0, 1), 2.0)


class TestMgfFunction:
    def test_must_be_one_at_zero(self):
        with pytest.raises(InvalidParameterError):
            MgfFunction(lambda t: 1.0 + t, mean=1.0)

    def test_infinite_outside_the_interval(self):
        m = mgf_of(E.exponential(1.0))
        assert m.log(1.0) == math.inf  # open upper endpoint at t = lambda
        assert m.log(3.5) == math.inf
        assert math.isfinite(m.log(0.999))

    def test_known_values(self):
        m = mgf_of(E.exponential(2.0))
        assert_allclose(m.log(-1.0), math.log(2.0 / 3.0))
        m = mgf_of(E.gaussian(1.0, 4.0))
        assert_allclose(m.log(0.5), 1.0)

    def test_declared_mean(self):
        assert mgf_of(E.gaussian(0.7, 2.0)).mean == 0.7
        assert mgf_of(E.exponential(2.0)).mean == 0.5

    def test_closed_upper_end(self):
        # centered-square MGF of an exponential-tail source lives on t <= 0
        m = mgf_of_centered_square(E.exponential(1.0), 0.0)
        assert m.contains(0.0) and not m.contains(1e-9)
        assert m.log(0.0) == 0.0 and m.log(1e-9) == math.inf
        assert_allclose(m.mean, 2.0, rtol=1e-15)  # E[X^2] = 2

    def test_centered_square_gaussian_analytic(self):
        m = mgf_of_centered_square(E.gaussian(0.5, 2.0), 0.0)
        # E[exp(t X^2)] for X ~ N(mu, v): exp(mu^2 t / (1-2vt)) / sqrt(1-2vt)
        t = -0.3
        expected = math.exp(0.25 * t / (1 + 1.2)) / math.sqrt(1 + 1.2)
        assert_allclose(m.log(t), math.log(expected), rtol=1e-12)
        assert m.log(0.25) == math.inf  # the interval ends at 1/(2 v)


class TestExponentialReference:
    def test_known_value(self):
        r = cross_entropy_q_exponential(mgf_of(E.exponential(2.0)), 1.0, 2.0)
        assert_allclose(r.value, math.log(1.5), rtol=1e-14)

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.0, 3.0])
    def test_coherent_with_closed_form(self, a):
        # Exponential(rate) is Gamma(1, 1/rate), so the MGF route must match
        # the gamma closed form for a gamma source
        p = E.gamma(2.5, 1.2)
        q_rate = 0.8
        special = cross_entropy_q_exponential(mgf_of(p), q_rate, a)
        closed = cross_entropy_closed(p, E.gamma(1.0, 1.0 / q_rate), a)
        assert_allclose(special.value, closed.value, rtol=1e-10)

    def test_shannon_marker(self):
        p = E.exponential(2.0)
        r = cross_entropy_q_exponential(mgf_of(p), 3.0, "one")
        assert_allclose(r.value, -math.log(3.0) + 3.0 / 2.0, rtol=1e-6)

    def test_invalid_rate(self):
        with pytest.raises(InvalidParameterError):
            cross_entropy_q_exponential(mgf_of(E.exponential(1.0)), -1.0, 2.0)


class TestGaussianReference:
    @pytest.mark.parametrize("a", [0.5, 1.5, 2.0, 3.0])
    def test_coherent_with_closed_form(self, a):
        p = E.gaussian(0.3, 1.7)
        mu, v = 1.0, 2.0
        special = cross_entropy_q_gaussian(mgf_of_centered_square(p, mu), mu, v, a)
        closed = cross_entropy_closed(p, E.gaussian(mu, v), a)
        assert_allclose(special.value, closed.value, rtol=1e-10)

    def test_shannon_marker_matches_closed(self):
        p = E.gaussian(0.3, 1.7)
        special = cross_entropy_q_gaussian(
            mgf_of_centered_square(p, 1.0), 1.0, 2.0, "one"
        )
        closed = cross_entropy_closed(p, E.gaussian(1.0, 2.0), "one")
        assert_allclose(special.value, closed.value, rtol=1e-6)

    def test_laplace_source(self):
        p = E.laplace(0.0, 1.0)
        r = cross_entropy_q_gaussian(mgf_of_centered_square(p, 0.0), 0.0, 1.0, 2.0)
        assert_allclose(r.value, 1.3410216450092634, rtol=1e-10)

    def test_half_normal(self):
        p = E.exponential(1.0)
        r = cross_entropy_q_gaussian(
            mgf_of_centered_square(p, 0.0), 0.0, 1.0, 2.0, half_normal=True
        )
        assert_allclose(r.value, 0.6478744644493184, rtol=1e-10)

    def test_half_normal_shifts_by_log_two(self):
        p = E.exponential(1.0)
        m = mgf_of_centered_square(p, 0.0)
        full = cross_entropy_q_gaussian(m, 0.0, 1.0, 2.0)
        half = cross_entropy_q_gaussian(m, 0.0, 1.0, 2.0, half_normal=True)
        assert_allclose(full.value - half.value, math.log(2.0), rtol=1e-12)

    def test_invalid_variance(self):
        with pytest.raises(InvalidParameterError):
            cross_entropy_q_gaussian(mgf_of(E.gaussian(0, 1)), 0.0, 0.0, 2.0)


REDUCERS_OUTSIDE_THE_INTERVAL = {
    # at alpha = 0.5, rate (1 - alpha) = 1.5 lies beyond the Exponential(1) bound t < 1
    "exponential": lambda a: cross_entropy_q_exponential(mgf_of(E.exponential(1.0)), 3.0, a),
    # and (1 - alpha) / (2 var) = 1.25 beyond the N(0, 1) square bound t < 1/2
    "gaussian": lambda a: cross_entropy_q_gaussian(
        mgf_of_centered_square(E.gaussian(0.0, 1.0), 0.0), 0.0, 0.2, a),
    # any t > 0 lies beyond the exponential-tail square bound t <= 0
    "gaussian-laplace": lambda a: cross_entropy_q_gaussian(
        mgf_of_centered_square(E.laplace(0.4, 1.0), -0.5), -0.5, 1.5, a),
    "half-normal": lambda a: cross_entropy_q_gaussian(
        mgf_of_centered_square(E.gamma(2.0, 0.5), 0.0), 0.0, 2.0, a, half_normal=True),
}


class TestReducersOutsideTheInterval:
    """Beyond the MGF finiteness interval the defining integral diverges:
    every reducer returns the verdict, +inf below alpha = 1."""

    @pytest.mark.parametrize("name", sorted(REDUCERS_OUTSIDE_THE_INTERVAL))
    @pytest.mark.parametrize("a", [0.05, 0.3, 0.5])
    def test_verdict_below_one(self, name, a):
        r = REDUCERS_OUTSIDE_THE_INTERVAL[name](a)
        assert r.diverged and r.value == math.inf and r.method is Method.SPECIAL_CASE

    def test_open_end_of_the_interval(self):
        # t = (1 - alpha) / (2 var) = 1/2 is where the N(0, 1) square MGF ends
        m = mgf_of_centered_square(E.gaussian(0.0, 1.0), 0.0)
        assert cross_entropy_q_gaussian(m, 0.0, 0.5, 0.5).diverged
        assert cross_entropy_closed(E.gaussian(0.0, 1.0), E.gaussian(0.0, 0.5), 0.5).diverged


def _same_outcome(special, closed):
    assert special.diverged == closed.diverged
    if closed.diverged:
        assert special.value == closed.value
    else:
        assert abs(special.value - closed.value) <= 1e-9 * max(1.0, abs(closed.value))


# the reducers divide ln M by 1 - alpha, which costs digits next to 1
_ORDERS = st.floats(0.05, 8.0).filter(lambda a: abs(a - 1.0) > 1e-6)
_EDGE_BAND = 1e-6  # inputs this close to the existence edge are skipped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.floats(0.2, 6.0), theta=st.floats(0.1, 5.0), rate=st.floats(0.05, 20.0),
       a=_ORDERS)
def test_q_exponential_matches_the_gamma_closed_form(k, theta, rate, a):
    # Exponential(rate) is Gamma(1, 1/rate); both routes diverge once
    # 1 + (alpha - 1) theta rate <= 0
    assume(abs(1.0 + (a - 1.0) * theta * rate) > _EDGE_BAND)
    p = E.gamma(k, theta)
    _same_outcome(cross_entropy_q_exponential(mgf_of(p), rate, a),
                  cross_entropy_closed(p, E.gamma(1.0, 1.0 / rate), a))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mu=st.floats(-5.0, 5.0), v=st.floats(0.05, 10.0), mean=st.floats(-5.0, 5.0),
       var=st.floats(0.05, 10.0), a=_ORDERS)
def test_q_gaussian_matches_the_gaussian_closed_form(mu, v, mean, var, a):
    # both routes diverge once 1 + (alpha - 1) v / var <= 0
    assume(abs(1.0 + (a - 1.0) * v / var) > _EDGE_BAND)
    p = E.gaussian(mu, v)
    _same_outcome(cross_entropy_q_gaussian(mgf_of_centered_square(p, mean), mean, var, a),
                  cross_entropy_closed(p, E.gaussian(mean, var), a))


def _mp_centered_square_mgf(d, center, tau):
    """E[exp(-tau (X - center)^2)] for a Laplace or exponential source in
    30-digit mpmath, from the erfc form of the completed square."""
    with mp.workdps(30):
        tau, c = mp.mpf(tau), mp.mpf(center)
        if d.family.value == "exponential":
            lam = mp.mpf(d.params[0])
            return (lam / 2 * mp.sqrt(mp.pi / tau) * mp.exp(-lam * c + lam ** 2 / (4 * tau))
                    * mp.erfc(mp.sqrt(tau) * (lam / (2 * tau) - c)))
        mu, s = (mp.mpf(v) for v in d.params)
        b = 1 / (2 * s * tau)
        return mp.sqrt(mp.pi / tau) / (4 * s) * mp.fsum(
            mp.exp(e / s + tau * b ** 2) * mp.erfc(mp.sqrt(tau) * (b + e))
            for e in (mu - c, c - mu))


def _mp_centered_square_quad(d, center, tau):
    """The same expectation as a 30-digit quadrature of its defining integral."""
    with mp.workdps(30):
        c = mp.mpf(center)
        if d.family.value == "exponential":
            lam = mp.mpf(d.params[0])
            return mp.quad(lambda x: lam * mp.exp(-lam * x - tau * (x - c) ** 2),
                           sorted({0, max(center, 0.0)}) + [mp.inf])
        mu, s = (mp.mpf(v) for v in d.params)
        return mp.quad(lambda x: mp.exp(-abs(x - mu) / s - tau * (x - c) ** 2) / (2 * s),
                       [-mp.inf] + sorted({d.params[0], center}) + [mp.inf])


CLOSED_SQUARE_SOURCES = [E.exponential(0.3), E.exponential(2.5), E.laplace(0.0, 1.0),
                         E.laplace(-1.5, 0.2), E.laplace(2.0, 4.0)]


class TestCenteredSquareClosedForms:
    @pytest.mark.parametrize("d", CLOSED_SQUARE_SOURCES, ids=repr)
    @pytest.mark.parametrize("tau", [1e-8, 1e-5, 1e-2, 0.3, 1.0, 7.0, 1e2])
    @pytest.mark.parametrize("center", [-10.0, -1.5, 0.0, 0.7, 10.0])
    def test_matches_mpmath(self, d, tau, center):
        m = mgf_of_centered_square(d, center)
        want_log = float(mp.log(_mp_centered_square_mgf(d, center, tau)))
        got_log = m.log(-tau)
        assert abs(got_log - want_log) <= 1e-13 * max(1.0, abs(want_log))

    @pytest.mark.parametrize("d, center, tau", [
        (E.exponential(2.5), 0.7, 0.3), (E.exponential(0.3), -1.5, 1.0),
        (E.laplace(0.0, 1.0), 0.0, 1.0), (E.laplace(-1.5, 0.2), 0.7, 0.3),
    ], ids=repr)
    def test_reference_is_the_defining_integral(self, d, center, tau):
        assert mp.almosteq(_mp_centered_square_mgf(d, center, tau),
                           _mp_centered_square_quad(d, center, tau), rel_eps=1e-20)

    @pytest.mark.parametrize("d, center", [(E.exponential(1.0), 10.0),
                                           (E.laplace(0.0, 1.0), 10.0),
                                           (E.laplace(0.0, 1.0), -10.0)], ids=repr)
    def test_negative_erfcx_argument(self, d, center):
        # tau = 1: z = sqrt(tau) (1/(2 s tau) - |mu - c|) or (lambda/(2 tau) - c) is -9.5
        want = float(mp.log(_mp_centered_square_mgf(d, center, 1.0)))
        assert abs(mgf_of_centered_square(d, center).log(-1.0) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("d", [E.exponential(1e300), E.laplace(0.0, 1e-300)], ids=repr)
    def test_erfcx_argument_beyond_double_range(self, d):
        # z = rate / (2 sqrt(tau)) overflows; M = 1 - tau E[Y] + ... rounds to 1
        assert mgf_of_centered_square(d, 0.0).log(-1e-20) == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("d", CLOSED_SQUARE_SOURCES + [E.gaussian(0.5, 2.0)], ids=repr)
    def test_exactly_one_at_zero(self, d):
        m = mgf_of_centered_square(d, 0.3)
        assert m.log(0.0) == 0.0


def _mp_shannon(p, q_logpdf):
    """-integral of p ln q in 30-digit mpmath."""
    with mp.workdps(30):
        fam, prm = p.family.value, [mp.mpf(v) for v in p.params]
        if fam == "beta":
            a, b = prm
            pdf, pts = (lambda x: x ** (a - 1) * (1 - x) ** (b - 1) / mp.beta(a, b)), [0, 1]
        elif fam == "chi_squared":
            k, th = prm[0] / 2, mp.mpf(2)
            pdf, pts = (lambda x: x ** (k - 1) * mp.exp(-x / th) / (mp.gamma(k) * th ** k),
                        [0, 1, mp.inf])
        elif fam == "exponential":
            pdf, pts = (lambda x: prm[0] * mp.exp(-prm[0] * x)), [0, 1, mp.inf]
        elif fam == "gamma":
            k, th = prm
            pdf, pts = (lambda x: x ** (k - 1) * mp.exp(-x / th) / (mp.gamma(k) * th ** k),
                        [0, 1, mp.inf])
        elif fam == "gaussian":
            mu, v = prm
            pdf, pts = (lambda x: mp.npdf(x, mu, mp.sqrt(v))), [-mp.inf, mu, mp.inf]
        else:
            mu, s = prm
            pdf, pts = (lambda x: mp.exp(-abs(x - mu) / s) / (2 * s)), [-mp.inf, mu, mp.inf]
        return mp.quad(lambda x: -pdf(x) * q_logpdf(x), pts)


SIX_SOURCES = [E.beta(2.5, 1.5), E.chi_squared(3.0), E.exponential(1.7), E.gamma(2.5, 0.8),
               E.gaussian(0.4, 1.3), E.laplace(-0.6, 0.9)]


class TestDeclaredMoments:
    @pytest.mark.parametrize("p", SIX_SOURCES, ids=repr)
    def test_gaussian_reference_marker(self, p):
        mean, var = 0.35, 1.6
        want = _mp_shannon(p, lambda x: -(x - mean) ** 2 / (2 * var) - mp.log(2 * mp.pi * var) / 2)
        got = cross_entropy_q_gaussian(mgf_of_centered_square(p, mean), mean, var, "one")
        assert abs(got.value - float(want)) <= 1e-12 * max(1.0, abs(float(want)))

    @pytest.mark.parametrize("p", [d for d in SIX_SOURCES if d.support == POSITIVE_REALS
                                   or d.family.value == "beta"], ids=repr)
    def test_exponential_reference_marker(self, p):
        rate = 0.8
        want = _mp_shannon(p, lambda x: mp.log(rate) - rate * x)
        got = cross_entropy_q_exponential(mgf_of(p), rate, "one")
        assert abs(got.value - float(want)) <= 1e-12 * max(1.0, abs(float(want)))

    def test_hand_built_mgf_uses_its_declared_mean(self):
        m = MgfFunction(lambda t: 0.7 * t + t * t, 0.7)
        r = cross_entropy_q_exponential(m, 2.0, "one")
        assert r.value == -math.log(2.0) + 2.0 * 0.7

    def test_one_form_with_a_mean(self):
        from dataclasses import fields

        assert [f.name for f in fields(MgfFunction)] == [
            "log_fn", "mean", "lower", "upper", "upper_closed"]
        with pytest.raises(TypeError):
            MgfFunction(log_fn=lambda t: 0.0)  # the mean is required
        with pytest.raises(InvalidParameterError):
            MgfFunction(log_fn=lambda t: 1.0 + t, mean=1.0)


class TestQuadratureCalls:
    @pytest.fixture
    def quad_calls(self, monkeypatch):
        from rxent import oracle

        calls = []
        real = oracle.quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "quad", counting)
        return calls

    @pytest.mark.parametrize("p", [E.gaussian(0.4, 1.3), E.laplace(-0.6, 0.9),
                                   E.exponential(1.7)], ids=repr)
    def test_closed_sources_never_integrate(self, quad_calls, p):
        m = mgf_of_centered_square(p, 0.25)
        for t in (0.0, -1e-6, -0.5, -30.0):
            m.log(t)
        for a in (1.5, 3.0, "one"):
            cross_entropy_q_gaussian(m, 0.25, 1.3, a)
        half = mgf_of_centered_square(p, 0.0)
        cross_entropy_q_gaussian(half, 0.0, 0.7, 2.0, half_normal=True)
        assert quad_calls == []

    def test_gamma_one_quadrature_per_evaluation(self, quad_calls):
        m = mgf_of_centered_square(E.gamma(2.5, 0.8), 0.25)
        assert quad_calls == []  # M(0) = 1 needs no quadrature
        for n, t in enumerate((-1e-6, -0.5, -30.0), start=1):
            m.log(t)
            assert len(quad_calls) == n
        cross_entropy_q_gaussian(m, 0.25, 1.3, 2.0)
        assert len(quad_calls) == 4
        cross_entropy_q_gaussian(m, 0.25, 1.3, "one")
        assert len(quad_calls) == 4


class TestLogSpace:
    def test_huge_exponential_rate(self):
        # gamma(2, 1) source: -ln r + 2 ln(1 + r) at alpha = 2, about 709.2
        r = 1e308
        got = cross_entropy_q_exponential(mgf_of(E.gamma(2.0, 1.0)), r, 2.0)
        with mp.workdps(30):
            want = -mp.log(r) + 2 * mp.log1p(r)
        assert_allclose(got.value, float(want), rtol=1e-14)
        assert not got.diverged

    def test_gaussian_square_near_end_of_interval(self):
        # t -> 1/(2 v) makes M overflow a double; the value is still finite
        p, q = E.gaussian(0.0, 1.0), E.gaussian(3.0, 0.5)
        a = 0.5 + 1e-7
        got = cross_entropy_q_gaussian(mgf_of_centered_square(p, 3.0), 3.0, 0.5, a)
        assert_allclose(got.value, cross_entropy_closed(p, q, a).value, rtol=1e-9)
        log_m = mgf_of_centered_square(p, 3.0).log((1.0 - a) / 1.0)
        assert math.log(np.finfo(float).max) < log_m < math.inf

    def test_mgf_argument_beyond_double_range_is_typed(self):
        # rate (1 - alpha) = -2e308 overflows; M is finite there, so no verdict
        with pytest.raises(DoubleRangeError):
            cross_entropy_q_exponential(mgf_of(E.gamma(2.0, 1.0)), 1e308, 3.0)

    @pytest.mark.parametrize("a", [0.5, "one", 2.0])
    def test_result_beyond_double_range_is_typed(self, a):
        m = mgf_of_centered_square(E.gaussian(0.0, 1.0), 1e308)
        with pytest.raises(DoubleRangeError):
            cross_entropy_q_gaussian(m, 1e308, 1.0, a)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reference_rejected(self, bad):
        m = mgf_of(E.exponential(1.0))
        with pytest.raises(InvalidParameterError):
            cross_entropy_q_exponential(m, bad, 2.0)
        square = mgf_of_centered_square(E.exponential(1.0), 0.0)
        with pytest.raises(InvalidParameterError):
            cross_entropy_q_gaussian(square, 0.0, bad, 2.0)
        with pytest.raises(InvalidParameterError):
            cross_entropy_q_gaussian(square, bad, 1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            mgf_of_centered_square(E.exponential(1.0), bad)


class TestClosedFormsNearOne:
    """ln Gamma differences divided by 1 - alpha: the closed forms sum them
    term by term, so the value keeps its digits at |alpha - 1| ~ 1e-9."""

    @staticmethod
    def _reference(f1, f2, a):
        with mp.workdps(40):
            a = mp.mpf(a)
            p1, p2 = [mp.mpf(v) for v in f1.params], [mp.mpf(v) for v in f2.params]
            if f1.family.value == "beta":
                (a1, b1), (a2, b2) = p1, p2
                ah, bh = a1 + (a - 1) * (a2 - 1), b1 + (a - 1) * (b2 - 1)
                step = mp.log(mp.beta(ah, bh)) - mp.log(mp.beta(a1, b1))
                return float(mp.log(mp.beta(a2, b2)) + step / (1 - a))
            if f1.family.value == "gamma":
                (k1, t1), (k2, t2) = p1, p2
                kh, th = k1 + (a - 1) * (k2 - 1), 1 / (1 / t1 + (a - 1) / t2)
                step = mp.loggamma(kh) + kh * mp.log(th) - mp.loggamma(k1) - k1 * mp.log(t1)
                return float(step / (1 - a) + mp.loggamma(k2) + k2 * mp.log(t2))
            (nu1,), (nu2,) = p1, p2
            nuh = nu1 + (a - 1) * (nu2 - 2)
            step = mp.loggamma(nuh / 2) - mp.loggamma(nu1 / 2) - nuh / 2 * mp.log(a)
            return float(step / (1 - a) + mp.log(2) + mp.loggamma(nu2 / 2))

    @pytest.mark.parametrize("f1, f2", [
        (E.beta(0.6808491250705226, 2.75896853758957), E.beta(0.5100192422182414, 3.211390663132383)),
        (E.gamma(1.0845193312024632, 0.3707551948700261),
         E.gamma(0.8646484809683953, 3.3749364569856666)),
        (E.chi_squared(0.8035747398271624), E.chi_squared(2.2940829372323233)),
    ], ids=lambda d: d.family.value)
    @pytest.mark.parametrize("t", [1.3e-9, -1.3e-9, 2e-8, -7e-7])
    def test_matches_mpmath(self, f1, f2, t):
        a = 1.0 + t
        assert_allclose(cross_entropy_closed(f1, f2, a).value, self._reference(f1, f2, a),
                        rtol=1e-8)


class TestExistenceEdge:
    """Within a few ulps of the existence edge alpha* < 1 the combined
    parameter and the log1p or ln Gamma argument round separately; each
    route still returns a value or a divergence verdict, never a math error."""

    @pytest.mark.parametrize("f1, f2, edge", [
        (E.exponential(1.5530626496354714), E.exponential(8.80454269592202),
         1 - 1.5530626496354714 / 8.80454269592202),
        (E.gaussian(0.2, 2.3), E.gaussian(-0.1, 0.7), 1 - 0.7 / 2.3),
        (E.gamma(0.9, 1.0), E.gamma(4.1, 1.0), 1 - 0.9 / 3.1),
        (E.chi_squared(1.3), E.chi_squared(7.7), 1 - 1.3 / 5.7),
        (E.beta(0.7, 2.0), E.beta(5.3, 2.0), 1 - 0.7 / 4.3),
    ], ids=["exponential", "gaussian", "gamma", "chi2", "beta"])
    def test_no_math_error_at_the_edge(self, f1, f2, edge):
        alphas = [edge]
        for direction in (0.0, 2.0):
            a = edge
            for _ in range(6):
                a = float(np.nextafter(a, direction))
                alphas.append(a)
        for a in alphas:
            for route in (cross_entropy_closed, cross_entropy_natural):
                r = route(f1, f2, a)
                assert r.diverged == (r.value == math.inf)
