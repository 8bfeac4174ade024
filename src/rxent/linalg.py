"""Small linear-algebra helpers shared by the Gaussian modules."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, NotPositiveDefiniteError


def as_symmetric_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix and return a float64 copy."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-12, atol=1e-12):
        raise NotPositiveDefiniteError(f"{name} must be symmetric")
    return (a + a.T) / 2.0


def cholesky_lower(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, raising NotPositiveDefiniteError on failure."""
    try:
        return scipy.linalg.cholesky(a, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc


def spd_logdet(a: np.ndarray, name: str = "matrix") -> float:
    """log det of a symmetric positive definite matrix via Cholesky pivots."""
    chol = cholesky_lower(a, name=name)
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def toeplitz_logdet(first_column, name: str = "matrix") -> float:
    """log det of the symmetric Toeplitz matrix with the given first column.

    Levinson-Durbin recursion: det T_n is the product of the one-step
    prediction errors E_0 = r_0, E_k = E_{k-1} (1 - kappa_k^2), so the
    log-determinant accumulates ln E_k in O(n^2) time and O(n) memory.
    Raises NotPositiveDefiniteError on a nonpositive prediction error.
    """
    r = np.asarray(first_column, dtype=float)
    n = r.size
    error = float(r[0])
    if not error > 0.0:
        raise NotPositiveDefiniteError(f"{name} is not positive definite")
    logdet = math.log(error)
    # coef[1..k-1] predicts x_t from x_{t-1}, ..., x_{t-k+1}
    coef = np.zeros(n)
    for k in range(1, n):
        kappa = (r[k] - coef[1:k] @ r[k - 1:0:-1]) / error
        coef[1:k] -= kappa * coef[k - 1:0:-1]
        coef[k] = kappa
        error *= (1.0 - kappa) * (1.0 + kappa)
        if not error > 0.0:
            raise NotPositiveDefiniteError(f"{name} is not positive definite")
        logdet += math.log(error)
    return logdet


def spd_inverse(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    chol = cholesky_lower(a, name=name)
    identity = np.eye(a.shape[0])
    inv = scipy.linalg.cho_solve((chol, True), identity)
    return (inv + inv.T) / 2.0
