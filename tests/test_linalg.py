import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from rxent import NotPositiveDefiniteError
from rxent.gaussproc import StationaryGaussianSpec, autocov_lags, psd, toeplitz_cov
from rxent.linalg import _levinson_logdet, cholesky_lower, spd_inverse, toeplitz_logdet


def random_spd_column(rng, n):
    """First column of an SPD Toeplitz matrix: autocovariance of a random
    moving average plus a white-noise floor."""
    taps = rng.normal(size=int(rng.integers(1, 8)))
    r = np.zeros(n)
    full = np.correlate(taps, taps, mode="full")[taps.size - 1:]
    take = min(n, full.size)
    r[:take] = full[:take]
    r[0] += rng.uniform(0.1, 1.0)
    return r


class TestToeplitzLogdet:
    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    def test_matches_slogdet(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            r = random_spd_column(rng, n)
            sign, expected = np.linalg.slogdet(scipy.linalg.toeplitz(r))
            assert sign == 1.0
            assert_allclose(toeplitz_logdet(r), expected, rtol=1e-12, atol=1e-12)

    def test_smooth_autocovariance(self):
        r = 2.0 * 0.99 ** np.arange(300)
        _, expected = np.linalg.slogdet(scipy.linalg.toeplitz(r))
        assert_allclose(toeplitz_logdet(r), expected, rtol=1e-12)

    @pytest.mark.parametrize("column", [[0.0], [-1.0, 0.1], [1.0, 1.0], [1.0, 0.0, 2.0]])
    def test_not_positive_definite_raises(self, column):
        with pytest.raises(NotPositiveDefiniteError):
            toeplitz_logdet(np.array(column))

    def test_error_names_the_matrix(self):
        with pytest.raises(NotPositiveDefiniteError, match="reference"):
            toeplitz_logdet(np.array([1.0, 2.0]), name="reference")


def levinson_reference(r):
    """ln det T_n from all n - 1 Levinson-Durbin steps, or None where a
    prediction error is not positive."""
    error, coef = r[0], np.zeros(0)
    if not error > 0:
        return None
    logdet = np.log(error)
    for k in range(1, r.size):
        kappa = (r[k] - coef @ r[k - 1:0:-1]) / error
        coef = np.append(coef - kappa * coef[::-1], kappa)
        error *= 1.0 - kappa * kappa
        if not error > 0:
            return None
        logdet += np.log(error)
    return logdet


def spike_column(n, lag, size):
    r = np.zeros(n)
    r[0], r[lag] = 1.0, size
    return r


class TestCertifiedStop:
    def test_autoregression_stops_at_the_first_check_exactly(self):
        # every residual correlation of the AR(1) predictor is 0
        r = 2.0 * 0.6 ** np.arange(2048)
        logdet, order = _levinson_logdet(r)
        assert order == 1
        assert_allclose(logdet, np.log(2.0) + 2047 * np.log(2.0 * 0.64), rtol=1e-14)

    def test_white_column_stops_at_order_one(self):
        logdet, order = _levinson_logdet(np.r_[3.0, np.zeros(511)])
        assert order == 1
        assert_allclose(logdet, 512 * np.log(3.0), rtol=1e-15)

    # B = r_y + t r_x for the white-noise and AR(1) pairs of the finite-n
    # referee: ARMA(1,1) columns, or sums of two AR(1) columns
    S = StationaryGaussianSpec
    ARMA = [(S.white_noise(1.3), S.ar1(0.8, 0.7), 2.5), (S.ar1(-0.6, 2.0), S.white_noise(0.5), 4.0),
            (S.white_noise(0.4), S.ar1(-0.9, 2.9), 6.6), (S.ar1(0.5, 1.0), S.white_noise(1.0), -0.3),
            (S.ar1(0.9, 1.0), S.ar1(-0.5, 2.0), 1.5)]

    @pytest.mark.parametrize("n", [256, 512, 1024, 2048])
    @pytest.mark.parametrize("case", range(len(ARMA)))
    def test_arma_columns_stop_early_and_match_slogdet(self, n, case):
        y, x, t = self.ARMA[case]
        column = autocov_lags(y, n) + t * autocov_lags(x, n)
        logdet, order = _levinson_logdet(column)
        _, expected = np.linalg.slogdet(scipy.linalg.toeplitz(column))
        assert_allclose(logdet, expected, rtol=1e-13)
        assert order <= 64

    @pytest.mark.parametrize("column, past", [
        (random_spd_column(np.random.default_rng(7), 1024), 0),
        (2.0 * spike_column(1024, 12, 0.25), 12),
        (spike_column(1024, 100, 0.4), 100),
        (spike_column(1024, 700, 0.4), 700),
    ], ids=["random", "seasonal", "gap100", "gap700"])
    def test_matches_slogdet(self, column, past):
        logdet, order = _levinson_logdet(column)
        _, expected = np.linalg.slogdet(scipy.linalg.toeplitz(column))
        assert_allclose(logdet, expected, rtol=1e-12)
        assert order > past

    def test_lost_definiteness_after_several_checks_raises(self):
        # white up to lag 299, so the checks at 1, 2, 4, ..., 256 see r_300
        with pytest.raises(NotPositiveDefiniteError):
            toeplitz_logdet(spike_column(512, 300, 2.0))

    def test_near_the_divergence_edge_verdicts_match_the_full_recursion(self):
        # B = r_y + t r_x with t = t* (1 -/+ delta), t* = -min g/f: inside
        # and outside the edge, where the prediction errors settle slowly
        w = np.linspace(0.0, 2.0 * np.pi, 1 << 15, endpoint=False)
        S = StationaryGaussianSpec
        pairs = [(S.ar1(0.7, 1.5), S.white_noise(1.0)), (S.ar1(-0.5), S.ar1(0.4, 2.0)),
                 (S.from_autocovariance([1.0, 0.6, 0.2, 0.05]), S.white_noise(0.8))]
        verdicts = set()
        for x, y in pairs:
            edge = -float(np.min(psd(y, w) / psd(x, w)))
            for n in (512, 2048):
                for delta in (1e-6, 1e-4, 1e-2, 1e-1):
                    for side in (-1.0, 1.0):
                        column = autocov_lags(y, n) + edge * (1 + side * delta) * autocov_lags(x, n)
                        expected = levinson_reference(column)
                        verdicts.add(expected is None)
                        if expected is None:
                            with pytest.raises(NotPositiveDefiniteError):
                                toeplitz_logdet(column)
                        else:
                            assert_allclose(toeplitz_logdet(column), expected, rtol=1e-12)
        assert verdicts == {True, False}


class TestCholeskyHelpers:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_is_typed(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_lower(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_indefinite_matrix_is_typed(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_spd_inverse(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        spd = a @ a.T + n * np.eye(n)
        inv = spd_inverse(spd)
        assert np.array_equal(inv, inv.T)
        assert_allclose(inv, np.linalg.inv(spd), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_toeplitz_cov_matches_scipy(self, n):
        spec = StationaryGaussianSpec.from_autocovariance([2.0, 0.6, -0.2])
        r = np.zeros(n)
        r[:min(n, 3)] = spec.autocov[:min(n, 3)]
        assert np.array_equal(toeplitz_cov(spec, n), scipy.linalg.toeplitz(r))
