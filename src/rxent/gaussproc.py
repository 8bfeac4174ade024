"""Renyi cross-entropy rates for stationary zero-mean Gaussian processes.

A process is described by a truncated autocovariance sequence r_0..r_m
(zero beyond the truncation), optionally a closed form for every lag and
optionally a closed-form power spectral density.  With f the spectral
density of the source X and g that of the reference Y, the order-alpha
cross-entropy rate is

    (1/2) ln 2 pi + (1/(4 pi (1 - alpha)))
        * integral_0^{2 pi} [ (2 - alpha) ln g(w) - ln h(w) ] dw,

where h = g + (alpha - 1) f must stay positive (it always does for
alpha > 1; for alpha < 1 a nonpositive h certifies divergence, +inf).
The finite-n counterpart replaces the integrals with log-determinants of
the n x n Toeplitz covariance matrices and converges to the spectral value
as n grows.  Each log-determinant is the sum of the logs of the one-step
prediction errors of the Levinson-Durbin recursion, so no n x n matrix is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .alpha import AlphaOrder
from .errors import (
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
    NonpositivePsdError,
    NotPositiveDefiniteError,
)
from .expfam import LOG_2PI
from .linalg import cholesky_lower, toeplitz_logdet

_PSD_FLOOR = 1e-12
_VALIDATION_GRID = 4096
_VALIDATION_TOEPLITZ = 64
_SPECTRAL_GRID = 4096
_SPECTRAL_GRID_MAX = 1 << 17
_SPECTRAL_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class StationaryGaussianSpec:
    """Stationary zero-mean Gaussian process.

    ``autocov`` holds r_0..r_m; lags beyond m are treated as zero unless
    ``autocov_fn`` gives r_k for any array of lags k, in which case the
    Toeplitz covariances use it at every order.  When a closed-form
    spectral density is known (``psd_fn``), it is preferred to the
    truncated cosine series.  Construction verifies r_0 > 0, strict
    positivity of the spectral density on a 4096-point grid, and positive
    definiteness of the order-64 Toeplitz matrix.
    """

    autocov: np.ndarray
    psd_fn: Callable[[np.ndarray], np.ndarray] | None = None
    autocov_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        r = np.asarray(self.autocov, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise InvalidParameterError("autocovariance must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(r)):
            raise InvalidParameterError("autocovariance values must be finite")
        if r[0] <= 0:
            raise InvalidParameterError(f"lag-0 autocovariance must be positive, got {r[0]}")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "autocov", r)
        grid = np.linspace(0.0, 2.0 * math.pi, _VALIDATION_GRID, endpoint=False)
        vals = psd(self, grid)
        if np.min(vals) <= _PSD_FLOOR:
            raise NonpositivePsdError(
                f"spectral density dips to {np.min(vals):.3e} on the check grid"
            )
        n_check = min(_VALIDATION_TOEPLITZ, max(2, 2 * r.size))
        cholesky_lower(toeplitz_cov(self, n_check, _validate=False),
                       name="Toeplitz covariance")

    @classmethod
    def white_noise(cls, variance: float) -> "StationaryGaussianSpec":
        variance = float(variance)
        if variance <= 0:
            raise InvalidParameterError(f"white noise needs variance > 0, got {variance}")
        return cls(np.array([variance]), psd_fn=lambda w: np.full_like(w, variance, dtype=float))

    @classmethod
    def ar1(cls, rho: float, variance: float = 1.0, truncation: int = 200) -> "StationaryGaussianSpec":
        """First-order autoregression: r_k = variance * rho^k.

        ``autocov`` keeps lags 0..truncation; finite-n covariances take
        every lag from the closed form.
        """
        rho, variance = float(rho), float(variance)
        if not -1.0 < rho < 1.0:
            raise InvalidParameterError(f"ar1 needs |rho| < 1, got {rho}")
        if variance <= 0:
            raise InvalidParameterError(f"ar1 needs variance > 0, got {variance}")

        def closed_autocov(lags):
            return variance * rho ** lags

        def closed_psd(w):
            return variance * (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(w) + rho * rho)

        return cls(closed_autocov(np.arange(int(truncation) + 1)), psd_fn=closed_psd,
                   autocov_fn=closed_autocov)

    @classmethod
    def from_autocovariance(cls, seq) -> "StationaryGaussianSpec":
        return cls(np.asarray(seq, dtype=float))


def psd(spec: StationaryGaussianSpec, w) -> np.ndarray:
    """Spectral density at angular frequencies w (closed form when known,
    otherwise the truncated series r_0 + 2 sum r_k cos(k w))."""
    w = np.asarray(w, dtype=float)
    if spec.psd_fn is not None:
        return np.asarray(spec.psd_fn(w), dtype=float)
    r = spec.autocov
    lags = np.arange(1, r.size)
    return r[0] + 2.0 * (r[1:, None] * np.cos(np.outer(lags, w))).sum(axis=0)


def autocov_lags(spec: StationaryGaussianSpec, n: int) -> np.ndarray:
    """r_0..r_{n-1}: the closed form when known, else the truncated sequence
    padded with zeros."""
    if spec.autocov_fn is not None:
        return np.asarray(spec.autocov_fn(np.arange(n)), dtype=float)
    first = np.zeros(n)
    take = min(n, spec.autocov.size)
    first[:take] = spec.autocov[:take]
    return first


def toeplitz_cov(spec: StationaryGaussianSpec, n: int, _validate: bool = True) -> np.ndarray:
    """The n x n Toeplitz covariance of the first n lags."""
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    cov = scipy.linalg.toeplitz(autocov_lags(spec, n))
    if _validate:
        cholesky_lower(cov, name="Toeplitz covariance")
    return cov


def _finite_alpha(alpha) -> float:
    alpha = AlphaOrder.coerce(alpha)
    if not alpha.is_finite_order:
        raise InvalidAlphaError(
            "Gaussian process rates need a finite order different from 1"
        )
    return alpha.value


def rate_spectral(x: StationaryGaussianSpec, y: StationaryGaussianSpec, alpha) -> float:
    """Cross-entropy rate from the spectral densities.

    Trapezoid rule on a uniform grid over [0, 2 pi), doubled until two
    successive refinements agree to 1e-9 (spectral accuracy for smooth
    densities).  Returns +inf when g + (alpha - 1) f is not strictly
    positive (possible only for alpha < 1).
    """
    a = _finite_alpha(alpha)
    previous = None
    n = _SPECTRAL_GRID
    while n <= _SPECTRAL_GRID_MAX:
        w = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        f = psd(x, w)
        g = psd(y, w)
        if np.min(g) <= _PSD_FLOOR or np.min(f) <= _PSD_FLOOR:
            raise NonpositivePsdError("spectral density not strictly positive on grid")
        h = g + (a - 1.0) * f
        if np.min(h) <= 0.0:
            return math.inf
        # periodic integrand: the uniform-node mean times 2 pi is the
        # trapezoid rule and converges spectrally fast
        integral = 2.0 * math.pi * float(np.mean((2.0 - a) * np.log(g) - np.log(h)))
        if previous is not None and abs(integral - previous) <= _SPECTRAL_TOLERANCE:
            break
        previous = integral
        n *= 2
    else:
        raise NonConvergenceError(
            f"spectral integral did not stabilize below {_SPECTRAL_TOLERANCE}"
        )
    return 0.5 * LOG_2PI + integral / (4.0 * math.pi * (1.0 - a))


def rate_finite_n(x: StationaryGaussianSpec, y: StationaryGaussianSpec, alpha, n: int) -> float:
    """Finite-n cross-entropy (per coordinate) from Toeplitz covariances.

        (1/2) ln 2 pi + [ (2 - alpha) ln det Cov_Y - ln det B ] / (2 n (1 - alpha)),

    with B = Cov_Y + (alpha - 1) Cov_X.  Both are Toeplitz, so each
    log-determinant accumulates the logs of the Levinson-Durbin prediction
    errors of its first column.  Returns +inf when B is not positive
    definite (alpha < 1 divergence).
    """
    a = _finite_alpha(alpha)
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    r_y = autocov_lags(y, n)
    logdet_y = toeplitz_logdet(r_y, name="reference Toeplitz covariance")
    try:
        logdet_b = toeplitz_logdet(r_y + (a - 1.0) * autocov_lags(x, n))
    except NotPositiveDefiniteError:
        if a < 1.0:
            return math.inf
        raise
    return 0.5 * LOG_2PI + ((2.0 - a) * logdet_y - logdet_b) / (2.0 * n * (1.0 - a))
