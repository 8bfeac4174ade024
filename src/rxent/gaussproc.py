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
The finite-n counterpart (``rate_finite_n``) replaces the integrals with
Toeplitz log-determinants and converges to the spectral value as n grows.

Construction certifies that the density exceeds 1e-12 r_0 at every
frequency (``_certify_floor``), which makes every Toeplitz covariance
positive definite and keeps ln f and ln g finite on every grid.  When both
processes are white noise or AR(1), the spectral rate has a closed form
(``_one_lag_rate``), whose divergence verdict is exact.  A pair with a
longer series takes the trapezoid rule on nested levels: level 0 is the
4096-point uniform grid, level j >= 1 the odd nodes of the 4096 2^j-point
grid.  One rate call fills each spec's density on a level once (an AR(1) at
the nodes, white noise flat, a longer series by one real FFT of its folded
lags), and the orders of a sequence add log1p(t f/g) over the new nodes to
running sums, with one (orders x nodes) log1p per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder, evaluate_orders
from .errors import (
    DoubleRangeError,
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
_SPECTRAL_GRID = 4096
_SPECTRAL_GRID_MAX = 1 << 17
_SPECTRAL_TOLERANCE = 1e-10
# rounding of a transform of up to 2^18 points per sum |coefficient|, 4 log2(2^18) eps: a measured
# figure, not a proven one (0.19 eps log2(N) at most was seen for m = 8-5000, N = 16-2^15)
_FFT_ROUNDING = 72 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class StationaryGaussianSpec:
    """Stationary zero-mean Gaussian process, as plain data of one of two
    kinds.

    A truncated series (``rho == 0``) holds its lags r_0..r_m in
    ``autocov``, and r_k = 0 beyond m; white noise of variance v is the
    one-lag series [v].  An AR(1) (0 < |rho| < 1) holds its variance alone,
    ``autocov == [v]``, and r_k = v rho^k at every lag.  Construction
    verifies r_0 > 0 and certifies that the spectral density exceeds
    1e-12 r_0 at every frequency (``_certify_floor``), or refuses the spec.
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
        _certify_floor(r, rho)

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
        variance = float(variance)
        if variance <= 0:
            raise InvalidParameterError(f"ar1 needs variance > 0, got {variance}")
        return cls(np.array([variance]), rho)

    @classmethod
    def from_autocovariance(cls, seq) -> "StationaryGaussianSpec":
        return cls(np.asarray(seq, dtype=float))


def psd(spec: StationaryGaussianSpec, w) -> np.ndarray:
    """Spectral density at angular frequencies w: for an AR(1), v (1 - rho^2)
    / (1 - 2 rho cos w + rho^2) = v (1 + 2 |rho| / d) / (1 + 4 |rho| s^2 / d^2)
    with d = 1 - |rho| and s = sin(w/2) (rho > 0) or cos(w/2) (rho < 0), a
    form without cancellation; r_0 + 2 sum r_k cos(k w) for a series."""
    w = np.asarray(w, dtype=float)
    r, rho = spec.autocov, spec.rho
    if rho:
        a, s = abs(rho), np.sin(0.5 * w) if rho > 0 else np.cos(0.5 * w)
        return r[0] * (1.0 + 2.0 * a / (1.0 - a)) / (1.0 + 4.0 * a * (s * s) / (1.0 - a) ** 2)
    acc = np.zeros_like(w)
    for k in range(1, r.size):  # one lag at a time: no (lags x points) temporaries
        acc += r[k] * np.cos(k * w)
    return r[0] + 2.0 * acc


def _certify_floor(r: np.ndarray, rho: float) -> None:
    """Raise NonpositivePsdError unless the density is certified above
    _PSD_FLOOR r_0 at every frequency.  White noise and an AR(1) have the
    exact minimum v (1 - |rho|) / (1 + |rho|).  A series, over r_0 the cosine
    series sum a_k cos(k w) with a_0 = 1 and a_k = 2 r_k / r_0, is bounded by
    ``_taylor_floor`` on N = max(16, 2 (m + 1)), 2 N, ... uniform nodes up to
    2^17, and refused as soon as a node falls to the floor."""
    if r.size == 1:
        low = r[0] * (1.0 - abs(rho)) / (1.0 + abs(rho))
        if low <= _PSD_FLOOR * r[0]:
            raise NonpositivePsdError(f"spectral density dips to {low:.3e}")
        return
    c, size = r / r[0], max(16, 1 << (2 * r.size - 1).bit_length())
    while True:
        low, bound = _taylor_floor(c, size)
        if low <= _PSD_FLOOR:
            raise NonpositivePsdError(
                f"spectral density dips to {low * r[0]:.3e} on a {size}-point grid"
            )
        if bound > _PSD_FLOOR:
            return
        if size >= _SPECTRAL_GRID_MAX:
            raise NonpositivePsdError(
                f"spectral density not certified above {_PSD_FLOOR * r[0]:.3e}"
            )
        size *= 2


def _taylor_floor(c: np.ndarray, size: int) -> tuple[float, float]:
    """The least value of the cosine series f of the lags c (c.size <= size /
    2) at size uniform nodes, and a lower bound on f at every frequency.  One
    real FFT of the a_k k^p, p = 0, 1, 2, gives f, f' and f'' at the nodes in
    [0, pi]; f and f'' are even and f' odd, so the bound at -w is that at w.
    Within h = pi / size of a node, f is at least the least value of
    f + f' d + f'' d^2 / 2 over |d| <= h, less (h^3 / 6) sum k^3 |a_k|.  Less,
    too, the rounding allowance of the three transforms, that of f twice, so
    that no node of a level (``_level_psd``, a transform of its own) falls
    below the bound."""
    k, h = np.arange(c.size), math.pi / size
    moments = np.where(k > 0, 2.0 * c, c) * k.astype(float) ** np.arange(4)[:, None]
    t = np.fft.rfft(moments[:3], size)
    f, slope, curve = t[0].real, np.abs(t[1].imag), -t[2].real
    vertex = curve * h > slope  # the quadratic takes its least value inside (-h, h)
    low = np.where(vertex, f - slope * slope / (2.0 * np.where(vertex, curve, 1.0)),
                   f - slope * h + 0.5 * curve * h * h)
    norms = np.abs(moments).sum(axis=1)  # sum k^p |a_k|, p = 0..3
    rounding = _FFT_ROUNDING * (2.0 * norms[0] + h * norms[1] + 0.5 * h * h * norms[2])
    return float(f.min()), float(low.min()) - h ** 3 / 6.0 * norms[3] - rounding


def _folded_series(lags: np.ndarray, size: int) -> np.ndarray:
    """lags[0] + 2 sum lags[k] cos(k w) on the size-point grid over [0, 2 pi),
    one real DFT of the lags folded onto 0..size/2 (lag k onto min(+-k mod size))."""
    k = np.arange(lags.size)
    fold = np.minimum(k % size, -k % size)
    # hfft counts the entries at 0 and size/2 once and every other twice
    weight = np.where((k > 0) & (fold % (size // 2) == 0), 2.0, 1.0)
    return np.fft.hfft(np.bincount(fold, weight * lags, minlength=size // 2 + 1), size)


def _level_psd(spec: StationaryGaussianSpec, j: int) -> np.ndarray:
    """psd / 2^e (``_level_exponent``) on the nodes of level j, the
    4096-point grid for j = 0, else the odd nodes of the 4096 2^j-point
    grid."""
    size, nodes = _SPECTRAL_GRID << j, slice(1, None, 2) if j else slice(None)
    e = _level_exponent(spec)
    if spec.rho:
        level = psd(spec, np.linspace(0.0, 2.0 * math.pi, size, endpoint=False)[nodes])
        return np.ldexp(level, -e) if e else level
    if spec.autocov.size == 1:
        return np.full(size // 2 if j else size, math.ldexp(spec.autocov[0], -e))
    return _folded_series(np.ldexp(spec.autocov, -e), size)[nodes]


def _level_exponent(spec: StationaryGaussianSpec) -> int:
    """The binary exponent of r_0 rounded toward zero to a multiple of 512.

    Dividing the lags by 2^e is exact, leaves an r_0 within 2^+-512 of 1 as
    it is, and brings any other within that range, where a series' density
    (at most (2 m + 1) r_0) and its floor (1e-12 r_0) are normal doubles."""
    return int(math.frexp(spec.autocov[0])[1] / 512) * 512


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

    When x and y are both white noise or AR(1), the mean is in closed form
    (``_one_lag_rate``), and +inf exactly when h = g + t f < 0 at some
    frequency or h = 0 at every frequency, for the double inputs as given.
    For any other pair it is the trapezoid rule on a uniform grid over
    [0, 2 pi), doubled until two successive refinements agree to
    1e-10 / max(1, pi |t| / 5) (spectral accuracy for smooth densities), so
    the value's stopping error is at most 5e-11 and 8e-11 / |t|; it returns
    +inf when h is not strictly positive on the grid (possible only for
    alpha < 1), and raises DoubleRangeError where f / g, or t f / g for
    t > 0, exceeds the double range.  A sequence of orders gives the list of
    rates.
    """
    return evaluate_orders(_spectral_rates, alpha, x, y)


def _spectral_rates(x: StationaryGaussianSpec, y: StationaryGaussianSpec, orders: list) -> list:
    if any(alpha.is_inf for alpha in orders):
        raise InvalidAlphaError("Gaussian process rates need a finite order")
    if x.autocov.size == 1 and y.autocov.size == 1:  # white noise or AR(1) on both sides
        return [_one_lag_rate(x, y, alpha.value) for alpha in orders]
    ts = [alpha.value - 1.0 for alpha in orders]
    tolerance = [_SPECTRAL_TOLERANCE / max(1.0, 0.2 * math.pi * abs(t)) for t in ts]
    rates, previous, log1p_sum = [None] * len(ts), [None] * len(ts), [0.0] * len(ts)
    log_g = 0.0  # sum of ln g over the nodes of levels 0..j
    # the levels come as f / 2^e_x and g / 2^e_y (``_level_psd``)
    e_x, e_y = _level_exponent(x), _level_exponent(y)
    shift, log_scale_g = e_x - e_y, e_y * math.log(2.0)
    live, n, j = list(range(len(ts))), _SPECTRAL_GRID, 0
    while live:
        if n > _SPECTRAL_GRID_MAX:
            raise NonConvergenceError(
                f"spectral integral did not stabilize below {tolerance[live[0]]:.3g}"
            )
        f, g = _level_psd(x, j), _level_psd(y, j)
        with np.errstate(over="ignore"):
            ratio = np.ldexp(f / g, shift) if shift else f / g
        ratio_max = float(ratio.max())
        if ratio_max == math.inf:
            raise DoubleRangeError("the density ratio f / g exceeds the double range")
        for i in live:  # for t < 0, min fl(1 + t r) is fl(1 + t max r); t >= 0 never diverges
            if 1.0 + ts[i] * ratio_max <= 0.0:
                rates[i] = math.inf
            elif ts[i] * ratio_max == math.inf:
                raise DoubleRangeError(
                    f"h / g exceeds the double range at order {orders[i].value}")
        live = [i for i in live if rates[i] is None]
        log_g += float(np.log(g).sum()) + g.size * log_scale_g
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


def _one_lag_rate(x: StationaryGaussianSpec, y: StationaryGaussianSpec, alpha: float) -> float:
    """The rate of two white-noise or AR(1) specs in closed form.

    With D = 1 + rho^2 - 2 rho cos w and c = v (1 - rho^2), f = c_f / D_f and
    g = c_g / D_g, so h D_f D_g / c_g = A - B cos w with A = A0 + t A1 and
    B = B0 + t B1, where A0 = 1 + rho_f^2, B0 = 2 rho_f, A1 = k (1 + rho_g^2),
    B1 = 2 k rho_g and k = c_f / c_g.  Over the circle ln D has mean 0 (the
    Kolmogorov-Szego formula), and ln(A - B cos w) has mean ln S with
    S = (A + sqrt(A^2 - B^2)) / 2 = ((sqrt(A - |B|) + sqrt(A + |B|)) / 2)^2
    for A >= |B| (the log-cosine integral), so the rate is
    (1/2) [ln 2 pi + ln c_g + ln S / t], and S(0) = 1.  Near S = 1, write
    S = 1 + t dS: ln S / t = log1p(t dS) / (t dS) dS, which is the Shannon
    rate at t = 0; elsewhere ln S / t = 2 ln sqrt(S) / t, since 1 + t dS
    would lose a small S.  A < |B|, or A = |B| = 0 (h = 0 everywhere),
    possible only for t < 0, is divergence; where A - |B| is within 1e-9 of
    the size of its terms, the verdict is exact: the ends are formed again
    from Fractions of the double inputs.
    """
    t, a, b = alpha - 1.0, x.rho, y.rho
    v_f, v_g = float(x.autocov[0]), float(y.autocov[0])
    k, low, high = _ends(v_f, v_g, a, b, t)
    if k == math.inf:
        raise DoubleRangeError("the density ratio c_f / c_g exceeds the double range")
    if t < 0.0 and abs(low) <= 1e-9 * (1.0 + a * a - t * k * (1.0 + b * b)):
        from fractions import Fraction  # a 2-3 ms import, paid only next to an edge

        _, low, high = _ends(Fraction(v_f), Fraction(v_g), Fraction(a), Fraction(b),
                             Fraction(alpha) - 1)
        if low < 0 or high == 0:  # h < 0 somewhere, or h = 0 everywhere
            return math.inf
        low, high = float(low), float(high)
    elif low < 0.0:
        return math.inf
    if high == math.inf:
        raise DoubleRangeError(f"h / g exceeds the double range at order {alpha}")
    root_low, root_high = math.sqrt(low), math.sqrt(high)
    root = 0.5 * (root_low + root_high)  # sqrt(S)
    q_f, q_g = (1.0 - a) * (1.0 + a), (1.0 - b) * (1.0 + b)
    if 0.7 < root < 1.4:
        # 2 (A0 A1 - B0 B1) = 2 k ((1 - ab)^2 + (a - b)^2) and A1^2 - B1^2 = k^2 q_g^2
        ds = 0.5 * k * (1.0 + b * b + (2.0 * ((1.0 - a * b) ** 2 + (a - b) ** 2)
                                       + t * k * q_g * q_g) / (root_low * root_high + q_f))
        u = t * ds
        mean = math.log1p(u) / u * ds if u else ds
    else:
        mean = 2.0 * math.log(root) / t
    return 0.5 * (LOG_2PI + math.log(v_g) + math.log(q_g) + mean)


def _ends(v_f, v_g, a, b, t) -> tuple:
    """k = c_f / c_g and the sorted A - |B| and A + |B| of ``_one_lag_rate``
    (h D_f D_g / c_g at w = 0 and at w = pi); exact on Fraction arguments."""
    k = v_f / v_g * ((1 - a) * (1 + a) / ((1 - b) * (1 + b)))
    zero, pi = (1 - a) ** 2 + t * k * (1 - b) ** 2, (1 + a) ** 2 + t * k * (1 + b) ** 2
    return (k, zero, pi) if zero <= pi else (k, pi, zero)


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
