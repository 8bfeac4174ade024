"""Renyi cross-entropy rates for stationary zero-mean Gaussian processes.

A process is plain data of one of two kinds: a truncated autocovariance
series r_0..r_m (zero beyond m; white noise is the one-lag series [v]),
or an AR(1) with variance v and coefficient rho, r_k = v rho^k at every
lag.  With f the spectral density of the source X and g that of the
reference Y, the order-alpha cross-entropy rate is

    (1/2) ln 2 pi + (1/(4 pi (1 - alpha)))
        * integral_0^{2 pi} [ (2 - alpha) ln g(w) - ln h(w) ] dw,

where h = g + (alpha - 1) f must stay positive (it always does for
alpha > 1; for alpha < 1 a nonpositive h certifies divergence, +inf).
With t = alpha - 1 the integrand is ln g + log1p(t f/g) / t, and t = 0
gives the Shannon rate, with ln g + f/g.
The finite-n counterpart replaces the integrals with log-determinants of
the n x n Toeplitz covariance matrices and converges to the spectral value
as n grows.  Each log-determinant is the sum of the logs of the one-step
prediction errors of the Levinson-Durbin recursion, so no n x n matrix is
formed.  The prediction errors of a rational spectrum settle geometrically
(the strong Szego limit), so the recursion stops at the first order
k = 64, 128, ... whose predictor leaves negligible residual correlations
over the remaining lags and adds (n - 1 - k) ln E_k: O(k^2 + n k) time
in place of O(n^2).

The trapezoid levels of the spectral rate are nested: level 0 is the
4096-point uniform grid, level j >= 1 the odd nodes of the 4096 2^j-point
grid.  Each spec keeps, per level, its density there, the minimum and the
sum of the logs (``_levels``), so an order adds only log1p(t f/g) over the
new nodes to running sums.  An AR(1) density is evaluated at the level's
nodes, white noise is flat, and a longer series fills a level from one
real FFT of its lags folded onto the whole grid of that size (the odd
entries for j >= 1), in place of one cosine pass per lag.  The grid cap
of 2^17 points bounds the store at about 1 MB per spec.  The orders of a
sequence run the levels together, with one (orders x nodes) log1p per
level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder, evaluate_orders
from .errors import (
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
    NonpositivePsdError,
    NotPositiveDefiniteError,
)
from .expfam import LOG_2PI
from .linalg import cholesky_lower, toeplitz_logdet
from .specfun import log1p_slope_sum

_PSD_FLOOR = 1e-12  # relative to r_0, the density's mean over the circle
_VALIDATION_TOEPLITZ = 64
_SPECTRAL_GRID = 4096
_SPECTRAL_GRID_MAX = 1 << 17
_SPECTRAL_TOLERANCE = 1e-10


@dataclass(frozen=True, eq=False)
class StationaryGaussianSpec:
    """Stationary zero-mean Gaussian process, as plain data of one of two
    kinds.

    A truncated series (``rho == 0``) holds its lags r_0..r_m in
    ``autocov``, and r_k = 0 beyond m; white noise of variance v is the
    one-lag series [v].  An AR(1) (0 < |rho| < 1) holds its variance alone,
    ``autocov == [v]``, and r_k = v rho^k at every lag.  Construction
    verifies r_0 > 0, that the spectral density stays above 1e-12 r_0 on a
    4096-point grid, and positive definiteness of the Toeplitz matrix of
    order min(64, max(2, 2 (m + 1))), or 64 for an AR(1).
    """

    autocov: np.ndarray
    rho: float = 0.0

    def __post_init__(self):
        rho = float(self.rho)
        if not -1.0 < rho < 1.0:
            raise InvalidParameterError(f"ar1 needs |rho| < 1, got {rho}")
        r = np.asarray(self.autocov, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise InvalidParameterError("autocovariance must be a nonempty 1-D sequence")
        if rho and r.size != 1:
            raise InvalidParameterError(f"an AR(1) holds its variance alone, got {r.size} lags")
        if not np.all(np.isfinite(r)):
            raise InvalidParameterError("autocovariance values must be finite")
        if r[0] <= 0:
            raise InvalidParameterError(f"lag-0 autocovariance must be positive, got {r[0]}")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "autocov", r)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_levels", [])  # a cache of the trapezoid levels (``_level``)
        low = _level(self, 0)[1]
        if low <= _PSD_FLOOR * r[0]:
            raise NonpositivePsdError(f"spectral density dips to {low:.3e} on the check grid")
        toeplitz_cov(self, _VALIDATION_TOEPLITZ if rho else
                     min(_VALIDATION_TOEPLITZ, max(2, 2 * r.size)))

    @classmethod
    def white_noise(cls, variance: float) -> "StationaryGaussianSpec":
        variance = float(variance)
        if variance <= 0:
            raise InvalidParameterError(f"white noise needs variance > 0, got {variance}")
        return cls(np.array([variance]))

    @classmethod
    def ar1(cls, rho: float, variance: float = 1.0) -> "StationaryGaussianSpec":
        """First-order autoregression: r_k = variance * rho^k at every lag
        (rho = 0 is white noise)."""
        rho, variance = float(rho), float(variance)
        if not -1.0 < rho < 1.0:
            raise InvalidParameterError(f"ar1 needs |rho| < 1, got {rho}")
        if variance <= 0:
            raise InvalidParameterError(f"ar1 needs variance > 0, got {variance}")
        return cls(np.array([variance]), rho)

    @classmethod
    def from_autocovariance(cls, seq) -> "StationaryGaussianSpec":
        return cls(np.asarray(seq, dtype=float))


def psd(spec: StationaryGaussianSpec, w) -> np.ndarray:
    """Spectral density at angular frequencies w: v (1 - rho^2) /
    (1 - 2 rho cos w + rho^2) for an AR(1), the cosine series
    r_0 + 2 sum r_k cos(k w) for a truncated series."""
    w = np.asarray(w, dtype=float)
    r, rho = spec.autocov, spec.rho
    if rho:
        return r[0] * (1.0 - rho * rho) / (1.0 - 2.0 * rho * np.cos(w) + rho * rho)
    acc = np.zeros_like(w)
    for k in range(1, r.size):  # one lag at a time: no (lags x points) temporaries
        acc += r[k] * np.cos(k * w)
    return r[0] + 2.0 * acc


def _level(spec: StationaryGaussianSpec, j: int) -> tuple[np.ndarray, float, float]:
    """psd on level j of the nested grids over [0, 2 pi) (the 4096-point grid
    for j = 0, else the odd nodes of the 4096 2^j-point grid), its minimum
    and the sum of its logs, computed once per spec and level."""
    levels = spec._levels
    while len(levels) <= j:
        vals = _level_psd(spec, len(levels))
        with np.errstate(divide="ignore", invalid="ignore"):  # a low min is rejected
            levels.append((vals, float(np.min(vals)), float(np.log(vals).sum())))
    return levels[j]


def _level_psd(spec: StationaryGaussianSpec, j: int) -> np.ndarray:
    """psd on the nodes of level j: the AR(1) density at the nodes, r_0 for
    white noise, or the cosine series on the whole 4096 2^j-point grid as
    one real DFT of the lags folded onto 0..size/2 (lag k onto
    min(k mod size, -k mod size))."""
    size = _SPECTRAL_GRID << j
    if spec.rho:
        nodes = np.linspace(0.0, 2.0 * math.pi, size, endpoint=False)
        return psd(spec, nodes[1::2] if j else nodes)
    if spec.autocov.size == 1:
        return np.full(size // 2 if j else size, spec.autocov[0])
    lags = np.arange(spec.autocov.size)
    fold = np.minimum(lags % size, -lags % size)
    # hfft counts the entries at 0 and size/2 once and every other twice
    weight = np.where((lags > 0) & (fold % (size // 2) == 0), 2.0, 1.0)
    vals = np.fft.hfft(np.bincount(fold, weight * spec.autocov, minlength=size // 2 + 1), size)
    return vals[1::2] if j else vals


def autocov_lags(spec: StationaryGaussianSpec, n: int) -> np.ndarray:
    """r_0..r_{n-1}: v rho^k for an AR(1), else the truncated series padded
    with zeros."""
    if spec.rho:
        return spec.autocov[0] * spec.rho ** np.arange(n)
    first = np.zeros(n)
    take = min(n, spec.autocov.size)
    first[:take] = spec.autocov[:take]
    return first


def toeplitz_cov(spec: StationaryGaussianSpec, n: int) -> np.ndarray:
    """The n x n Toeplitz covariance of the first n lags, checked positive
    definite by its Cholesky factor."""
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    lags = np.arange(n)
    cov = autocov_lags(spec, n)[np.abs(lags[:, None] - lags[None, :])]
    cholesky_lower(cov, name="Toeplitz covariance")
    return cov


def rate_spectral(x: StationaryGaussianSpec, y: StationaryGaussianSpec, alpha):
    """Cross-entropy rate (1/2) ln 2 pi + (1/2) mean[ln g + log1p(t f/g) / t]
    over the circle, t = alpha - 1; at t = 0 the mean is of ln g + f/g.

    The mean is the trapezoid rule on a uniform grid over [0, 2 pi), doubled
    until two successive refinements agree to 1e-10 / max(1, pi |t| / 5)
    (spectral accuracy for smooth densities), so the value's stopping error
    is at most 5e-11 and 8e-11 / |t|.  Each doubling adds the sums over the
    new nodes of the nested levels only.  Returns +inf when h = g + t f is
    not strictly positive (possible only for alpha < 1).  A sequence of
    orders gives the list of rates.
    """
    return evaluate_orders(_spectral_rates, alpha, x, y)


def _spectral_rates(x: StationaryGaussianSpec, y: StationaryGaussianSpec, orders: list) -> list:
    if any(alpha.is_inf for alpha in orders):
        raise InvalidAlphaError("Gaussian process rates need a finite order")
    ts = [alpha.value - 1.0 for alpha in orders]
    tolerance = [_SPECTRAL_TOLERANCE / max(1.0, 0.2 * math.pi * abs(t)) for t in ts]
    rates, previous, log1p_sum = [None] * len(ts), [None] * len(ts), [0.0] * len(ts)
    log_g = 0.0  # sum of ln g over the nodes of levels 0..j
    live, n, j = list(range(len(ts))), _SPECTRAL_GRID, 0
    while live:
        if n > _SPECTRAL_GRID_MAX:
            raise NonConvergenceError(
                f"spectral integral did not stabilize below {tolerance[live[0]]:.3g}"
            )
        (f, f_min, _), (g, g_min, g_log_sum) = _level(x, j), _level(y, j)
        if g_min <= _PSD_FLOOR * y.autocov[0] or f_min <= _PSD_FLOOR * x.autocov[0]:
            raise NonpositivePsdError("spectral density not strictly positive on grid")
        ratio = f / g
        ratio_max = float(ratio.max())
        for i in live:  # for t < 0, min fl(1 + t r) is fl(1 + t max r); t >= 0 never diverges
            if 1.0 + ts[i] * ratio_max <= 0.0:
                rates[i] = math.inf
        live = [i for i in live if rates[i] is None]
        # periodic integrand: the uniform-node mean is the trapezoid rule
        # and converges spectrally fast
        log_g += g_log_sum
        for i, s in zip(live, log1p_slope_sum([ts[i] for i in live], ratio)):
            log1p_sum[i] += s
        for i in live:
            mean = log_g / n + log1p_sum[i] / n
            if previous[i] is not None and abs(mean - previous[i]) <= tolerance[i]:
                rates[i] = 0.5 * (LOG_2PI + mean)
            previous[i] = mean
        live = [i for i in live if rates[i] is None]
        n, j = 2 * n, j + 1
    return rates


def rate_finite_n(x: StationaryGaussianSpec, y: StationaryGaussianSpec, alpha, n: int) -> float:
    """Finite-n cross-entropy (per coordinate) from Toeplitz covariances.

        (1/2) ln 2 pi + [ (2 - alpha) ln det Cov_Y - ln det B ] / (2 n (1 - alpha)),

    with B = Cov_Y + (alpha - 1) Cov_X.  Both are Toeplitz, so each
    log-determinant accumulates the logs of the Levinson-Durbin prediction
    errors of its first column, up to the order k at which the rest is
    certified to within 1e-15 (``linalg.toeplitz_logdet``): O(k^2 + n k)
    time, and O(n^2) for a column that never settles.  Returns +inf when B
    is not positive definite (alpha < 1 divergence).
    """
    alpha = AlphaOrder.coerce(alpha)
    if not alpha.is_finite_order:
        raise InvalidAlphaError(
            "Gaussian process rates need a finite order different from 1"
        )
    a = alpha.value
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
