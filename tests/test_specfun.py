"""The special functions against 30-digit mpmath, and logsumexp against scipy.

Parameters cover the ranges the benchmark draws: Beta and Gamma parameters
0.4-8, chi-squared half-degrees 0.3-6, combined parameters up to about 60,
and Beta MGF arguments rate (1 - alpha) in [-21, 2.6].
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import hyp1f1
from scipy.special import logsumexp as scipy_logsumexp

from rxent.differential import mgf_of
from rxent.expfam import ExpFamilyDistribution as E
from rxent.specfun import (
    betaln, betaln_slope, digamma, erfcx, gammaln, gammaln_slope, gammaln_step, log1p_slope,
    log_kummer_slope, logsumexp,
)

ARGS = [float(x) for x in np.geomspace(0.3, 60.0, 13)]


def _close(got, want, rtol=1e-14, atol=0.0):
    return abs(got - want) <= rtol * abs(want) + atol


class TestGammaFunctions:
    @pytest.mark.parametrize("x", ARGS + [1e-300, 1.0, 2.0, 1e8, 1e300])
    def test_gammaln(self, x):
        with mp.workdps(30):
            want = float(mp.loggamma(x))
        assert _close(gammaln(x), want, atol=1e-15)

    def test_gammaln_beyond_double_range_is_inf(self):
        assert gammaln(1e306) == math.inf

    @pytest.mark.parametrize("x", ARGS + [1e-3, 1.4, 1.46, 1.4616321449683622, 1.47, 1.5,
                                          9.999, 10.0, 1e3, 1e8])
    def test_digamma(self, x):
        # relative 1e-14, but near the positive root 1.4616... the value
        # cancels and only the absolute error stays small
        with mp.workdps(30):
            want = float(mp.digamma(x))
        assert _close(digamma(x), want, atol=2e-15)

    @pytest.mark.parametrize("a", ARGS)
    @pytest.mark.parametrize("b", ARGS)
    def test_betaln(self, a, b):
        with mp.workdps(30):
            want = float(mp.log(mp.beta(a, b)))
        assert _close(betaln(a, b), want, atol=1e-15)

    @pytest.mark.parametrize("a, b", [(1e8, 0.5), (0.5, 1e8), (10.0, 0.3), (9.999, 0.3),
                                      (1e8, 1e8), (1e-320, 2.0), (3.0, 3.0)])
    def test_betaln_extremes(self, a, b):
        with mp.workdps(30):
            want = float(mp.log(mp.beta(a, b)))
        assert _close(betaln(a, b), want)


class TestSteps:
    @pytest.mark.parametrize("x", [0.3, 0.4018, 1.0, 2.75, 7.9, 10.0, 33.0])
    @pytest.mark.parametrize("h", [1e-12, -1.3e-9, 2e-8, -7e-7, 1e-4, 0.25, -0.29, 5.0, 49.0])
    def test_gammaln_step(self, x, h):
        # absolute error about 1e-18 as h -> 0, where a difference of two
        # ln Gamma values keeps about 1e-16
        with mp.workdps(40):
            want = float(mp.loggamma(mp.mpf(x) + mp.mpf(h)) - mp.loggamma(x))
        assert _close(gammaln_step(x, h), want, atol=1e-17)

    def test_gammaln_step_to_the_edge(self):
        # x + h = 2^-53: 1 + h / x would keep about one bit of it
        x = 0.5
        h = -0.5 + 2.0 ** -53
        with mp.workdps(40):
            want = float(mp.loggamma(mp.mpf(x) + mp.mpf(h)) - mp.loggamma(x))
        assert _close(gammaln_step(x, h), want)

    @pytest.mark.parametrize("h", [1e-9, -1e-9, 1.01e-9, -1.01e-9])
    def test_gammaln_step_relative_at_tiny_steps(self, h):
        # the difference of the two Stirling tails is summed as h times a
        # positive sum, so the step divided by h keeps its digits however
        # small h is; 300 draws as in the closed forms: x in (0.1, 20),
        # c in (-3, 3).  Near the root of psi (x = 1.46) the quotient,
        # about c psi(x), cancels, so the bound has a floor of 5e-15 |c|.
        rng = np.random.default_rng(12)
        for x, c in zip(rng.uniform(0.1, 20.0, 300), rng.uniform(-3.0, 3.0, 300)):
            x, c = float(x), float(c)
            with mp.workdps(40):
                want = (mp.loggamma(mp.mpf(x) + mp.mpf(c) * mp.mpf(h)) - mp.loggamma(x)) / h
            assert _close(gammaln_step(x, c * h) / h, float(want), atol=5e-15 * abs(c)), (x, c)

    @pytest.mark.parametrize("t", [0.0, 1.3e-9, -2e-8, 1e-4, 0.5])
    def test_betaln_slope(self, t):
        a, b, ca, cb = 0.68, 2.76, -0.49, 2.21
        with mp.workdps(40):
            a_, b_ = mp.mpf(a), mp.mpf(b)
            if t == 0.0:
                want = ca * mp.digamma(a_) + cb * mp.digamma(b_) - (ca + cb) * mp.digamma(a_ + b_)
            else:
                want = (mp.log(mp.beta(a_ + ca * mp.mpf(t), b_ + cb * mp.mpf(t)))
                        - mp.log(mp.beta(a_, b_))) / t
        assert _close(betaln_slope(a, b, ca, cb, t), float(want))

    def test_slopes_at_zero_are_the_limits(self):
        assert gammaln_slope(2.5, -1.5, 0.0) == -1.5 * digamma(2.5)
        assert log1p_slope(0.0, 0.37) == 0.37
        assert_allclose(log1p_slope(1e-9, 0.37), 0.37 * (1 - 0.5e-9 * 0.37), rtol=1e-15)

    @pytest.mark.parametrize("t, u", [(1e10, 1e300), (-1e308, -10.0), (1e300, 1e300)])
    def test_log1p_slope_where_the_product_overflows(self, t, u):
        # 1 + t u is t u to double precision there, and its log is finite
        with mp.workdps(30):
            want = float(mp.log1p(mp.mpf(t) * u) / t)
        assert_allclose(log1p_slope(t, u), want, rtol=1e-15)


def log_kummer(a, b, t):
    """ln M(a, a + b, t) from its quotient by t."""
    return t * log_kummer_slope(a, b, t)


class TestKummer:
    @pytest.mark.parametrize("a", [0.4, 1.3, 3.7, 8.0])
    @pytest.mark.parametrize("b", [0.4, 1.3, 3.7, 8.0])
    @pytest.mark.parametrize("t", [-21.0, -7.5, -1.0, -1e-3, 0.0, 1e-3, 0.9, 2.55])
    def test_matches_mpmath(self, a, b, t):
        with mp.workdps(30):
            want = float(mp.hyp1f1(a, a + b, t))
        assert_allclose(math.exp(log_kummer(a, b, t)), want, rtol=1e-14)

    @pytest.mark.parametrize("a, b", [(2.5, 3.5), (0.4, 8.0), (8.0, 0.4)])
    @pytest.mark.parametrize("t", [1e-9, -1e-9, 1.01e-9, -1.01e-9])
    def test_near_zero_argument_relative(self, a, b, t):
        # the terms after the leading 1 enter through log1p, so ln M keeps
        # its relative precision as t -> 0
        with mp.workdps(40):
            want = float(mp.log(mp.hyp1f1(a, a + b, t)))
        assert_allclose(log_kummer(a, b, t), want, rtol=1e-14)

    @pytest.mark.parametrize("a, b", [(2.5, 3.5), (0.4, 8.0), (8.0, 0.4)])
    @pytest.mark.parametrize("t", [0.0, 1e-20, -1e-20, 1e-12, -1e-12, -0.5, -1.0, -1.5])
    def test_quotient_keeps_relative_precision(self, a, b, t):
        # the first factor of t is divided out of the series, so the
        # quotient has its limit a / (a + b) at t = 0 and no cancellation
        # next to it; below t = -1, 1 minus the quotient of M(b, a + b, -t)
        # costs up to a factor (b / a) of the last digit
        with mp.workdps(40):
            want = a / mp.mpf(a + b) if t == 0.0 else mp.log(mp.hyp1f1(a, a + b, t)) / t
        assert_allclose(log_kummer_slope(a, b, t), float(want), rtol=1e-14)

    @pytest.mark.parametrize("a, b, t", [(0.01, 100.0, -7.5), (0.01, 100.0, -1.01),
                                         (0.01, 100.0, -30.0), (0.4, 8.0, -1.5),
                                         (0.4, 8.0, -4.0), (2.0, 3.0, -1.5)])
    def test_direct_series_below_minus_one(self, a, b, t):
        # the term ratio |t| (a + n) / ((a + b + n)(n + 1)) stays below 1, so
        # the alternating series keeps the digits 1 - Q(b, a, -t) would cancel
        with mp.workdps(40):
            want = mp.log(mp.hyp1f1(a, a + b, t)) / t
        assert_allclose(log_kummer_slope(a, b, t), float(want), rtol=2e-15)

    @pytest.mark.parametrize("t", [-800.0, -3000.0])
    def test_large_negative_argument(self, t):
        # e^-t M(b, a + b, -t) overflows a double, so the sum is rescaled;
        # its running product of term ratios rounds about |t| times
        with mp.workdps(30):
            want = float(mp.log(mp.hyp1f1(2.5, 6.0, t)))
        assert_allclose(log_kummer(2.5, 3.5, t), want, rtol=1e-16 * abs(t))

    @pytest.mark.parametrize("a", [0.4, 2.0, 8.0])
    @pytest.mark.parametrize("b", [0.4, 2.0, 8.0])
    @pytest.mark.parametrize("t", [-30.0, -1e3, -1e5, -1e7])
    def test_large_negative_argument_expansion(self, a, b, t):
        with mp.workdps(30):
            want = float(mp.hyp1f1(a, a + b, t))
        assert_allclose(math.exp(log_kummer(a, b, t)), want, rtol=1e-13)

    def test_large_negative_argument_is_fast(self):
        # the direct sum takes about |t| terms; the expansion a handful
        start = time.perf_counter()
        log_kummer(2.0, 3.0, -1e7)
        assert time.perf_counter() - start < 0.05

    def test_no_overflow_past_the_series_edge(self):
        # the series sums (M - 1) / t, which leaves the double range near
        # t = 732 for a = 2, b = 3; above t = 50 the quotient comes from
        # Kummer's transformation instead, finite on both sides of there
        a, b = 2.0, 3.0
        with mp.workdps(30):
            edge = mp.findroot(lambda t: mp.log(mp.hyp1f1(a, a + b, t) - 1) - mp.log(t)
                               - mp.log(np.finfo(float).max), 732.0)
            below, above = float(edge * (1 - 1e-9)), float(edge * (1 + 1e-9))
            want = [float(mp.log(mp.hyp1f1(a, a + b, t))) for t in (below, above)]
        assert hyp1f1(a, a + b, below) == math.inf  # M itself is past the range
        mgf = mgf_of(E.beta(a, b))
        for t, w in zip((below, above), want):
            assert_allclose(log_kummer(a, b, t), w, rtol=1e-14)
            assert_allclose(t * mgf.quotient(t), w, rtol=1e-14)

    @pytest.mark.parametrize("a", [0.4, 2.0, 8.0])
    @pytest.mark.parametrize("b", [0.4, 3.0, 8.0])
    @pytest.mark.parametrize("t", [50.5, 120.0, 800.0, 3000.0, 9999.0])
    def test_large_positive_argument(self, a, b, t):
        with mp.workdps(40):
            want = float(mp.log(mp.hyp1f1(a, a + b, t)) / t)
        assert_allclose(log_kummer_slope(a, b, t), want, rtol=1e-12)

    def test_beta_source_against_a_steep_exponential(self):
        # rate (1 - alpha) = 800: M overflows, the cross-entropy does not
        from rxent.differential import cross_entropy_q_exponential

        got = cross_entropy_q_exponential(mgf_of(E.beta(2.0, 3.0)), 1000.0, 0.2)
        assert_allclose(got.value, 971.992821719100927, rtol=1e-13)


class TestErfcx:
    @pytest.mark.parametrize("z", [0.0, 1e-300] + [float(z) for z in np.geomspace(1e-6, 1e8, 43)]
                             + [25.999, 26.0, 26.001])
    def test_matches_mpmath(self, z):
        with mp.workdps(30):
            want = float(mp.exp(mp.mpf(z) ** 2) * mp.erfc(z))
        assert_allclose(erfcx(z), want, rtol=1e-14)


class TestLogSumExp:
    @pytest.mark.parametrize("terms", [
        [], [-math.inf], [-math.inf, -math.inf], [math.inf, 1.0], [math.inf, -math.inf],
        [-math.inf, math.inf], [math.nan, 1.0], [1.0, math.nan, math.inf], [0.0],
        [1.0, 2.0, 3.0], [0.0, -800.0], [-1e300, -1e300], [700.0, 700.0, -math.inf],
    ], ids=repr)
    def test_edge_cases_match_scipy(self, terms):
        terms = np.array(terms, dtype=float)
        got, want = logsumexp(terms), float(scipy_logsumexp(terms))
        assert isinstance(got, float)
        assert got == want or (math.isnan(got) and math.isnan(want)) or \
            abs(got - want) <= 1e-15 * abs(want)

    def test_random_vectors_match_scipy(self):
        rng = np.random.default_rng(11)
        for size in (1, 2, 20, 200):
            for scale in (1e-3, 1.0, 50.0, 1e3):
                terms = scale * rng.normal(size=size)
                assert_allclose(logsumexp(terms), scipy_logsumexp(terms), rtol=1e-15,
                                atol=1e-300)
