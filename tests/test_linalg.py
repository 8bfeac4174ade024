import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from rxent import NotPositiveDefiniteError
from rxent.linalg import toeplitz_logdet


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
