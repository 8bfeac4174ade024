"""Small linear-algebra helpers shared by the Gaussian modules."""

from __future__ import annotations

import math

import numpy as np

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
    """Lower Cholesky factor, raising NotPositiveDefiniteError on failure.

    A matrix with an infinite or NaN entry fails too: LAPACK factors it
    without complaint, into a factor that is not finite.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"{name} is not positive definite") from exc
    if not np.isfinite(chol).all():
        raise NotPositiveDefiniteError(f"{name} has entries that are not finite")
    return chol


def spd_logdet(a: np.ndarray, name: str = "matrix") -> float:
    """log det of a symmetric positive definite matrix via Cholesky pivots."""
    chol = cholesky_lower(a, name=name)
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


# The Levinson recursion checks, at orders 1, 2, 4, ..., whether the rest
# of ln det is certified to within _STOP_BOUND (see _neglected_bound).  A
# check at order k is one O(n k) convolution, so the checks up to order k
# cost O(n k) together, the order of the stop they can make.
_FIRST_CHECK = 1
_STOP_BOUND = 1e-15


def toeplitz_logdet(first_column, name: str = "matrix") -> float:
    """log det of the symmetric Toeplitz matrix with the given first column.

    Levinson-Durbin recursion: det T_n is the product of the one-step
    prediction errors E_0 = r_0, E_k = E_{k-1} (1 - kappa_k^2), so the
    log-determinant accumulates ln E_k in O(n) memory.  At the orders
    k = 1, 2, 4, ... below n - 1 the recursion tries to stop: when the
    residual correlations of the order-k predictor over the remaining lags
    are negligible, every later prediction error is E_k, to within 1e-15 in
    ln det (exactly, when the first n lags are those of an AR(k) process),
    and the sum closes with (n - 1 - k) ln E_k; a white column stops at
    order 1, with n ln r_0.  A column that settles at order k costs
    O(k^2 + n k) time; one that never does (a unit root, a symbol touching
    zero, structure that appears only at a late lag) runs all n - 1 steps
    in O(n^2).  Raises
    NotPositiveDefiniteError on a nonpositive prediction error.
    """
    return _levinson_logdet(first_column, name)[0]


def _levinson_logdet(first_column, name: str = "matrix") -> tuple[float, int]:
    """toeplitz_logdet and the predictor order k it stopped at (n - 1 when
    the recursion ran through)."""
    r = np.asarray(first_column, dtype=float)
    n = r.size
    error = float(r[0])
    if not error > 0.0:
        raise NotPositiveDefiniteError(f"{name} is not positive definite")
    logdet = math.log(error)
    # coef[1..k-1] predicts x_t from x_{t-1}, ..., x_{t-k+1}; those lags,
    # r[k-1], ..., r[1], are the contiguous slice rev[n-k:n-1] of reversed r
    coef = np.zeros(n)
    rev = r[::-1].copy()
    check = _FIRST_CHECK
    for k in range(1, n):
        kappa = (r[k] - coef[1:k] @ rev[n - k:n - 1]) / error
        coef[1:k] -= kappa * coef[k - 1:0:-1]
        coef[k] = kappa
        error *= (1.0 - kappa) * (1.0 + kappa)
        if not error > 0.0:
            raise NotPositiveDefiniteError(f"{name} is not positive definite")
        logdet += math.log(error)
        if k == check and k < n - 1:
            check *= 2
            if _neglected_bound(r, coef[1:k + 1], error) <= _STOP_BOUND:
                return logdet + (n - 1 - k) * math.log(error), k
    return logdet, n - 1


def _neglected_bound(r: np.ndarray, coef: np.ndarray, error: float) -> float:
    """How far ln det T_n can be from that of the order-k autoregression
    that matches r_0..r_k (prediction errors E_0..E_k, then E_k).

    With rho_j = r_j - sum_i coef_i r_{j-i} the residual correlations of
    the order-k predictor at the lags j = k+1..n-1, the difference is
    ln det(I + X): X is the covariance perturbation whitened by that
    autoregression's innovations, with a zero diagonal, so ln det(I + X)
    is at most ||X||_F^2 once ||X||_F <= 1/2, and then T_n is positive
    definite too.  Each entry of X filters the rho_j / E_k by 1 - coef, so
    ||X||_F^2 <= 2 n (1 + sum |coef_i|)^2 sum (rho_j / E_k)^2, taking the
    order-k filter for every row.  All rho_j = 0 gives 0: the n lags are
    an AR(k) process, and every later reflection coefficient is 0.
    """
    n, k = r.size, coef.size
    rho = r[k + 1:] - np.convolve(r[1:n - 1], coef, "valid")
    scale = 1.0 + float(np.abs(coef).sum())
    return 2.0 * n * scale * scale * float(np.sum((rho / error) ** 2))


def spd_inverse(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky:
    A^-1 = L^-T L^-1 from the lower factor L."""
    chol_inv = np.linalg.solve(cholesky_lower(a, name=name), np.eye(a.shape[0]))
    inv = chol_inv.T @ chol_inv
    return (inv + inv.T) / 2.0


def relative_eigenvalues(a: np.ndarray, b: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Eigenvalues of b^-1 a for a symmetric a and a positive definite b
    (``name`` labels b): those of the symmetric L^-1 a L^-T, b = L L^T."""
    chol_inv = np.linalg.solve(cholesky_lower(b, name=name), np.eye(b.shape[0]))
    return np.linalg.eigvalsh(chol_inv @ a @ chol_inv.T)
