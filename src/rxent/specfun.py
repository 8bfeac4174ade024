"""Special functions for the closed forms.

Each scalar function takes and returns plain Python floats, is exact to a
few units in the last place over the ranges the closed forms use (positive
real arguments), and keeps a typed result where a double cannot hold the
value: +inf instead of an OverflowError.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_LOG_1E300 = 300.0 * math.log(10.0)
# erfc(z) stays a normal double and exp(z^2) finite below this point
_ERFCX_SPLIT = 26.0
# the Stirling tail below has truncation error under 1e-15 from here on
_STIRLING_MIN = 10.0
_STEP_ORDERS = 0.05  # |alpha - 1| below which ln Gamma differences are steps
# -t from which ln M(a, a + b, t) is tried by its large-|t| expansion: there
# e^t < 2e-22, so for a and b of order one both the dropped e^t part and the
# expansion's smallest term are below double precision (for other a and b
# the expansion checks both itself); below it the direct sum is short.  The
# second constant is the log of the relative size that no longer counts.
_KUMMER_ASYMPTOTIC = 50.0
_LOG_DOUBLE_EPS = math.log(1e-17)
_BLOCK_DOUBLES = 1 << 14


def gammaln(x: float) -> float:
    """ln Gamma(x) for x > 0; +inf where it exceeds the double range.

    Where Gamma(x) is a double, ln of math.gamma: its error is a fraction of
    an ulp in most places, against two or three for math.lgamma, and closed
    forms divide differences of ln Gamma by 1 - alpha near alpha = 1.
    """
    if 1e-300 < x < 170.0:
        return math.log(math.gamma(x))
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


# Stirling's series: ln Gamma(x) - [(x - 1/2) ln x - x + (1/2) ln 2 pi] is
# T(x) = sum_k c_k / x^(2k + 1) for x >= 10, with these c_k
_STIRLING_COEFFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _stirling_tail_step(x: float, h: float) -> float:
    """T(x + h) - T(x) as h times a sum of positive terms, which does not
    cancel for small h: with a = 1/x and b = 1/(x + h),
    1/(x + h)^n - 1/x^n = -h a b e_(n-1), where the complete sums
    e_m = sum_{j <= m} a^(m-j) b^j follow e_m = a^2 e_(m-2) + b^(m-1) (a + b).
    """
    a, b = 1.0 / x, 1.0 / (x + h)
    a2, b2, s = a * a, b * b, a + b
    e, b_odd, total = 1.0, b, _STIRLING_COEFFS[0]
    for c in _STIRLING_COEFFS[1:]:  # e_2, e_4, ..., e_10
        e = a2 * e + b_odd * s
        b_odd *= b2
        total += c * e
    return -h * a * b * total


def betaln(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0.

    With b the larger argument: below 10, the log of Gamma(a) Gamma(b) /
    Gamma(a + b) (exact for small integers); from 10 on, ln Gamma(a) plus
    the difference ln Gamma(b) - ln Gamma(a + b) from Stirling's series,
    which does not cancel when b is large against a, as a sum of three
    ln Gamma values does (betaln(1e8, 0.5) keeps full precision).
    """
    a, b = min(a, b), max(a, b)
    if b < _STIRLING_MIN:
        if a > 1e-300:  # Gamma(a) and B(a, b) <= 2 / a are doubles
            return math.log(math.gamma(a) * (math.gamma(b) / math.gamma(a + b)))
        return gammaln(a) + gammaln(b) - gammaln(a + b)
    s = a + b
    return (gammaln(a) - (b - 0.5) * math.log1p(a / b) - a * math.log(s) + a
            - _stirling_tail_step(b, a))


def gammaln_step(x: float, h: float) -> float:
    """ln Gamma(x + h) - ln Gamma(x) for x > 0 and x + h > 0.

    Both arguments move up to at least 10 through ln Gamma(x) =
    ln Gamma(x + 1) - ln x; the moves add -log1p(q) with
    q = prod(1 + h / x_i) - 1, accumulated as q <- q + (h / x_i)(1 + q), whose
    terms share the sign of h (below 1/2, the ratio (x + h) / x, exact by
    Sterbenz, keeps the digits 1 + h / x loses).  Stirling's series is then
    differenced term by term.  Every term is of order h, so the relative
    error stays at a few ulp however small h is.
    """
    acc, q, low = 0.0, 0.0, min(x, x + h)
    while low < _STIRLING_MIN:
        if h > -0.5 * x:
            u = h / x
            q += u * (1.0 + q)
        else:
            acc -= math.log((x + h) / x)
        x += 1.0
        low += 1.0
    return (acc - math.log1p(q) + (x - 0.5) * math.log1p(h / x) + h * (math.log(x + h) - 1.0)
            + _stirling_tail_step(x, h))


def gammaln_slope(x: float, c: float, t: float) -> float:
    """[ln Gamma(x + c t) - ln Gamma(x)] / t, and its limit c psi(x) at t = 0:
    the step below |t| = 1/20, the quotient of two ln Gamma values above
    (whose rounding t amplifies at most 20-fold), at a fifth of the cost."""
    if t == 0.0:
        return c * digamma(x)
    if x + c * t <= 0.0:  # ln Gamma -> +inf at the edge of its domain
        return math.copysign(math.inf, t)
    if abs(t) < _STEP_ORDERS:
        return gammaln_step(x, c * t) / t
    return (gammaln(x + c * t) - gammaln(x)) / t


def betaln_slope(a: float, b: float, ca: float, cb: float, t: float) -> float:
    """[ln B(a + ca t, b + cb t) - ln B(a, b)] / t, and its limit at t = 0,
    split at |t| = 1/20 as ``gammaln_slope`` is."""
    if abs(t) < _STEP_ORDERS:
        return (gammaln_slope(a, ca, t) + gammaln_slope(b, cb, t)
                - gammaln_slope(a + b, ca + cb, t))
    return (betaln(a + ca * t, b + cb * t) - betaln(a, b)) / t


def log1p_slope(t: float, u: float) -> float:
    """ln(1 + t u) / t, and its limit u at t = 0; -inf / t where 1 + t u <= 0,
    and (ln|t| + ln|u|) / t where the product t u overflows."""
    if t == 0.0:
        return u
    tu = t * u
    if tu == math.inf:
        return (math.log(abs(t)) + math.log(abs(u))) / t
    return math.log1p(tu) / t if tu > -1.0 else -math.copysign(math.inf, t)


def log1p_slope_sum(ts: list, u: np.ndarray) -> list:
    """For each t of a list, the sum of ln(1 + t u) / t over an array u (all
    1 + t u > 0), and its limit sum u at t = 0, in (orders x len(u)) blocks
    of at most 2^14 doubles: larger ones take fresh pages at twice the cost."""
    rows = max(1, _BLOCK_DOUBLES // max(1, u.size))
    sums = [s for k in range(0, len(ts), rows)
            for s in np.log1p(np.multiply.outer(ts[k:k + rows], u)).sum(axis=1).tolist()]
    return [s / t if t != 0.0 else float(u.sum()) for t, s in zip(ts, sums)]


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x moves x to at least 10, where
    the asymptotic series is summed to x^-14.  Near the positive root
    1.4616... the error stays about 1e-15 in absolute terms; relative to
    the small value it is larger.
    """
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (1.0 / 12.0 - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (
        1.0 / 240.0 - r * (1.0 / 132.0 - r * (691.0 / 32760.0 - r / 12.0))))))
    return acc + math.log(x) - 0.5 / x - series


def erfcx(z: float) -> float:
    """Scaled complementary error function exp(z^2) erfc(z) for z >= 0.

    Below 26 it is exp(z^2) erfc(z), with z^2 split exactly into a double
    and a remainder so that the exponent loses no digits.  From 26 on it is
    the continued fraction 1 / (sqrt(pi) (z + (1/2) / (z + 1 / (z + ...)))),
    eight levels deep.
    """
    if z < _ERFCX_SPLIT:
        c = 134217729.0 * z  # 2^27 + 1: z = hi + lo with 26-bit halves
        hi = c - (c - z)
        lo = z - hi
        square = z * z
        rest = ((hi * hi - square) + 2.0 * hi * lo) + lo * lo
        return math.exp(square) * math.erfc(z) * (1.0 + rest)
    f = z
    for n in range(8, 0, -1):
        f = z + 0.5 * n / f
    return 1.0 / (_SQRT_PI * f)


def _log_kummer_asymptotic(a: float, b: float, t: float) -> float | None:
    """ln M(a, a + b, t) for large -t from the expansion
    M ~ Gamma(a + b) / Gamma(b) (-t)^-a sum_k (a)_k (1 - b)_k / k! (-t)^-k,
    or None where it misses double precision: when a term stops falling
    before it is negligible, or when the dropped part,
    Gamma(a + b) / Gamma(a) e^t (-t)^-b to leading order, is not.
    """
    x = -t
    log_x = math.log(x)
    if not gammaln(b) - gammaln(a) + t + (a - b) * log_x <= _LOG_DOUBLE_EPS:
        return None
    rest, term, k = 0.0, 1.0, 0.0
    while abs(term) > 1e-17 * abs(1.0 + rest):
        ratio = (a + k) * (1.0 - b + k) / ((k + 1.0) * x)
        if abs(ratio) >= 1.0:
            return None
        term *= ratio
        rest += term
        k += 1.0
    return gammaln(a + b) - gammaln(b) - a * log_x + math.log1p(rest)


def log_kummer_slope(a: float, b: float, t: float) -> float:
    """ln M(a, a + b, t) / t of Kummer's confluent hypergeometric function,
    a, b > 0, and its limit a / (a + b) at t = 0.

    Kummer's series with its first factor of t divided out, M = 1 + t R,
    R = sum_n t^(n-1) (a)_n / ((a + b)_n n!), gives log1p(t R) / t, exact as
    t -> 0, from t = -1 up and wherever |t| (a + n) / ((a + b + n)(n + 1))
    < 1, so that for t < 0 the terms alternate and shrink from the first on.
    Elsewhere M(a, a + b, t) = e^t M(b, a + b, -t) makes every term positive
    and the quotient 1 minus that of M(b, a + b, -t), whose sum is rescaled
    as it grows.  For t > 0
    the sum overflows to +inf where (M - 1) / t exceeds the double range.
    The number of terms grows like |t|, so beyond |t| = 50 the large-|t|
    expansion is used wherever it reaches double precision, above 50 in
    Q(a, b, t) = 1 - Q(b, a, -t), which stays finite where M overflows.
    """
    if abs(t) > _KUMMER_ASYMPTOTIC:
        log_m = _log_kummer_asymptotic(a, b, t) if t < 0.0 else _log_kummer_asymptotic(b, a, -t)
        if log_m is not None:
            return log_m / t + (1.0 if t > 0.0 else 0.0)
    c = a + b
    peak = max(1.0, math.sqrt(max(0.0, (1.0 - a) * (c - a))) - a)  # n of the largest ratio
    direct = t >= -1.0 or -t * (a + peak) / ((c + peak) * (peak + 1.0)) < 1.0
    p, s = (a, t) if direct else (b, -t)
    rest, term, log_scale, n = 0.0, p / c, 0.0, 0.0
    # terms grow while n < s, then fall off
    while (n < s or abs(term) > 1e-17 * rest) and rest < math.inf:
        rest += term
        n += 1.0
        term *= s * (p + n) / ((c + n) * (n + 1.0))
        if rest > 1e300 and not direct:  # the leading 1 is below rounding from here on
            rest, term, log_scale = rest * 1e-300, term * 1e-300, log_scale + _LOG_1E300
    q = log1p_slope(s, rest) if log_scale == 0.0 else (log_scale + math.log(s * rest)) / s
    return q if direct else 1.0 - q


def logsumexp(terms: np.ndarray):
    """ln sum exp over the last axis: a float for a 1-D array, a list of one
    float per row for a 2-D one.

    The largest term of a row is shifted out and the rest enter through
    log1p, so a sum dominated by one term keeps its digits.  An empty or
    all -inf row gives -inf, a +inf term +inf, and a NaN term NaN.
    """
    if terms.ndim == 1:
        return logsumexp(terms[None])[0]
    m, n = terms.shape
    if n == 0:
        return [-math.inf] * m
    at = terms.argmax(axis=1) + np.arange(0, m * n, n)  # each row's top, flat
    top = terms.take(at)
    tops = top.tolist()
    if not all(map(math.isfinite, tops)):  # such a row's value is its top
        finite = np.isfinite(top)
        terms, top = np.where(finite[:, None], terms, 0.0), np.where(finite, top, 0.0)
    rest = np.exp(terms - top[:, None])
    rest.put(at, 0.0)
    return [u + math.log1p(s) if math.isfinite(u) else u
            for u, s in zip(tops, np.add.reduce(rest, axis=1).tolist())]
