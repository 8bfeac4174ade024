import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    ExpFamilyDistribution,
    InvalidAlphaError,
    InvalidParameterError,
    NonpositivePsdError,
    NotPositiveDefiniteError,
    StationaryGaussianSpec,
    cross_entropy_closed,
    rate_finite_n,
    rate_spectral,
)
from rxent.gaussproc import autocov_lags, psd, toeplitz_cov

S = StationaryGaussianSpec


class TestSpecConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            S.white_noise(0.0)
        with pytest.raises(InvalidParameterError):
            S.ar1(1.0)
        with pytest.raises(InvalidParameterError):
            S.from_autocovariance([])
        with pytest.raises(InvalidParameterError):
            S.from_autocovariance([-1.0, 0.2])

    def test_nonpositive_psd_rejected(self):
        # r = (1, 0.9): series density 1 + 1.8 cos(w) goes negative
        with pytest.raises(NonpositivePsdError):
            S.from_autocovariance([1.0, 0.9])

    def test_psd_white(self):
        spec = S.white_noise(2.5)
        w = np.linspace(0, 2 * math.pi, 7)
        assert_allclose(psd(spec, w), 2.5)

    def test_psd_ar1_closed_form(self):
        spec = S.ar1(0.6, 1.0)
        w = np.linspace(0, 2 * math.pi, 9)
        expected = (1 - 0.36) / (1 - 1.2 * np.cos(w) + 0.36)
        assert_allclose(psd(spec, w), expected, rtol=1e-12)

    def test_psd_series_matches_closed_form(self):
        closed = S.ar1(0.6, 1.0)
        series = S.from_autocovariance(1.0 * 0.6 ** np.arange(201))
        w = np.linspace(0, 2 * math.pi, 33)
        assert_allclose(psd(series, w), psd(closed, w), rtol=1e-8)

    def test_toeplitz_values(self):
        spec = S.ar1(0.5, 2.0)
        cov = toeplitz_cov(spec, 3)
        assert_allclose(cov, [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])

    def test_toeplitz_pads_zeros_beyond_truncation(self):
        spec = S.from_autocovariance([1.0, 0.3])
        cov = toeplitz_cov(spec, 4)
        assert cov[0, 2] == 0.0 and cov[0, 3] == 0.0

    def test_autocov_immutable(self):
        spec = S.white_noise(1.0)
        with pytest.raises(ValueError):
            spec.autocov[0] = 2.0


class TestWhiteNoiseRates:
    def test_self_pair(self):
        w = S.white_noise(1.0)
        assert_allclose(rate_spectral(w, w, 2.0), 1.2655121234846454, rtol=1e-12)

    def test_four_versus_one(self):
        x, y = S.white_noise(4.0), S.white_noise(1.0)
        assert_allclose(rate_spectral(x, y, 2.0), 1.723657489421723, rtol=1e-12)
        assert_allclose(rate_spectral(x, y, 2.0), 0.5 * math.log(10 * math.pi),
                        rtol=1e-12)

    @pytest.mark.parametrize("a", [0.9, 1.5, 2.0, 3.0])
    def test_equals_scalar_gaussian(self, a):
        # iid sequences: the rate is the one-letter cross-entropy
        x, y = S.white_noise(1.7), S.white_noise(0.8)
        scalar = cross_entropy_closed(
            ExpFamilyDistribution.gaussian(0, 1.7),
            ExpFamilyDistribution.gaussian(0, 0.8),
            a,
        )
        assert_allclose(rate_spectral(x, y, a), scalar.value, rtol=1e-10)
        for n in (1, 8, 64):
            assert_allclose(rate_finite_n(x, y, a, n), scalar.value, rtol=1e-10)

    def test_divergence_below_one(self):
        x, y = S.white_noise(4.0), S.white_noise(1.0)
        assert rate_spectral(x, y, 0.5) == math.inf
        assert rate_finite_n(x, y, 0.5, 16) == math.inf


class TestCorrelatedRates:
    X = S.ar1(0.6, 1.0)
    Y = S.ar1(0.3, 1.5)

    @pytest.mark.parametrize("a", [0.9, 1.5, 2.0, 3.0])
    def test_finite_n_converges_to_spectral(self, a):
        limit = rate_spectral(self.X, self.Y, a)
        assert abs(rate_finite_n(self.X, self.Y, a, 1024) - limit) < 1e-3

    def test_error_shrinks_with_n(self):
        limit = rate_spectral(self.X, self.Y, 2.0)
        errors = [
            abs(rate_finite_n(self.X, self.Y, 2.0, n) - limit)
            for n in (16, 64, 256, 1024)
        ]
        for bigger, smaller in zip(errors, errors[1:]):
            assert smaller <= bigger + 1e-12

    def test_truncated_series_agrees_with_closed_psd(self):
        series_x = S.from_autocovariance(1.0 * 0.6 ** np.arange(201))
        series_y = S.from_autocovariance(1.5 * 0.3 ** np.arange(201))
        assert_allclose(
            rate_spectral(series_x, series_y, 2.0),
            rate_spectral(self.X, self.Y, 2.0),
            rtol=1e-8,
        )

    def test_divergence_when_h_goes_negative(self):
        # h(0) = g(0) - 0.5 f(0) = 1.077... - 2 < 0 at alpha = 1/2
        x = S.ar1(0.6, 1.0)
        y = S.ar1(-0.3, 2.0)
        assert rate_spectral(x, y, 0.5) == math.inf
        assert rate_finite_n(x, y, 0.5, 256) == math.inf

    def test_alpha_markers_rejected(self):
        for a in (AlphaOrder.one(), AlphaOrder.inf(), "shannon", "inf"):
            with pytest.raises(InvalidAlphaError):
                rate_spectral(self.X, self.Y, a)
            with pytest.raises(InvalidAlphaError):
                rate_finite_n(self.X, self.Y, a, 16)

    def test_symmetric_exactly_at_order_two(self):
        # at alpha = 2 the integrand collapses to ln(f + g)
        forward = rate_spectral(self.X, self.Y, 2.0)
        backward = rate_spectral(self.Y, self.X, 2.0)
        assert_allclose(forward, backward, rtol=1e-12)

    def test_asymmetric_elsewhere(self):
        forward = rate_spectral(self.X, self.Y, 3.0)
        backward = rate_spectral(self.Y, self.X, 3.0)
        assert abs(forward - backward) > 1e-3

    def test_self_rate_below_shifted_reference(self):
        # mismatched reference costs more than the matched one at alpha = 2
        matched = rate_spectral(self.X, self.X, 2.0)
        mismatched = rate_spectral(self.X, self.Y, 2.0)
        assert mismatched > matched


def lagged_spike(lag, size):
    """A spec that passes the construction checks (flat closed-form density,
    white up to order 64) but whose lag ``lag`` autocovariance is ``size``,
    so its order lag + 1 Toeplitz matrix is not positive definite."""
    return S(np.array([1.0]), psd_fn=lambda w: np.ones_like(w),
             autocov_fn=lambda k: np.where(k == 0, 1.0, np.where(k == lag, size, 0.0)))


class TestFiniteNDivergence:
    def test_below_one_nonpositive_b_is_infinite(self):
        # B = Cov_Y - 0.5 Cov_X has lag-100 entry -1 against a diagonal of 0.5
        assert rate_finite_n(lagged_spike(100, 2.0), S.white_noise(1.0), 0.5, 128) == math.inf

    def test_above_one_nonpositive_b_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            rate_finite_n(lagged_spike(100, 2.0), S.white_noise(1.0), 2.0, 128)

    def test_nonpositive_reference_raises_below_one(self):
        with pytest.raises(NotPositiveDefiniteError, match="reference"):
            rate_finite_n(S.white_noise(1.0), lagged_spike(100, 2.0), 0.5, 128)


class TestAr1AllLags:
    X = S.ar1(0.99, 1.0)
    Y = S.white_noise(1.0)

    def test_lags_beyond_truncation_are_exact(self):
        r = autocov_lags(self.X, 2048)
        assert_allclose(r, 0.99 ** np.arange(2048), rtol=1e-12)
        assert self.X.autocov.size == 201

    def test_finite_n_error_halves_with_n(self):
        limit = rate_spectral(self.X, self.Y, 2.0)
        errors = [rate_finite_n(self.X, self.Y, 2.0, n) - limit
                  for n in (256, 512, 1024, 2048)]
        assert 2.6e-3 < errors[0] < 2.8e-3
        assert 3.3e-4 < errors[-1] < 3.5e-4
        for bigger, smaller in zip(errors, errors[1:]):
            assert 0.45 < smaller / bigger < 0.55

    def test_order_three_factors(self):
        limit = rate_spectral(self.X, self.Y, 3.0)
        assert abs(rate_finite_n(self.X, self.Y, 3.0, 1024) - limit) < 1e-3
