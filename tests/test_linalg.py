import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from rxent import NotPositiveDefiniteError
from rxent.gaussproc import StationaryGaussianSpec, toeplitz_cov
from rxent.linalg import cholesky_lower, spd_inverse, toeplitz_logdet


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
