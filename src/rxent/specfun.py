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


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - [(x - 1/2) ln x - x + (1/2) ln 2 pi] for x >= 10."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (
        1.0 / 1680.0 - r * (1.0 / 1188.0 - r * 691.0 / 360360.0))))) / x


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
            + _stirling_tail(b) - _stirling_tail(s))


def gammaln_step(x: float, h: float) -> float:
    """ln Gamma(x + h) - ln Gamma(x) for x > 0 and x + h > 0.

    Both arguments move up to at least 10 through ln Gamma(x) =
    ln Gamma(x + 1) - ln x, each move adding -log1p(h / x); there the
    difference of Stirling's series is summed term by term.  Every term but
    the difference of the two tails (each below 0.01) is of order h, so as
    h -> 0 the error falls to about 1e-18, where the difference of two
    ln Gamma values keeps an error of about 1e-16.
    """
    acc = 0.0
    while min(x, x + h) < _STIRLING_MIN:
        # ln((x + h) / x); below 1/2 the ratio, whose x + h is exact
        # (Sterbenz), keeps the digits that 1 + h / x loses
        acc -= math.log1p(h / x) if h > -0.5 * x else math.log((x + h) / x)
        x += 1.0
    return (acc + (x - 0.5) * math.log1p(h / x) + h * (math.log(x + h) - 1.0)
            + _stirling_tail(x + h) - _stirling_tail(x))


def betaln_step(a: float, b: float, da: float, db: float) -> float:
    """ln B(a + da, b + db) - ln B(a, b), without cancellation for small steps."""
    return gammaln_step(a, da) + gammaln_step(b, db) - gammaln_step(a + b, da + db)


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


def log_kummer(a: float, b: float, t: float) -> float:
    """ln M(a, a + b, t) of Kummer's confluent hypergeometric function, a, b > 0.

    Kummer's series for t >= 0 and, for t < 0, the transformation
    M(a, a + b, t) = e^t M(b, a + b, -t): every term is positive, so the sum
    does not cancel.  The t < 0 sum is rescaled as it grows (M itself is at
    most 1 there); for t > 0 the sum overflows, and the result is +inf,
    exactly where M exceeds the double range.  The number of terms grows
    like |t|.
    """
    c = a + b
    p, s = (a, t) if t >= 0.0 else (b, -t)
    total = term = 1.0
    log_scale = 0.0
    n = 0.0
    # terms grow while n < s, then fall off
    while (n <= s or term > 1e-17 * total) and total < math.inf:
        term *= s * (p + n) / ((c + n) * (n + 1.0))
        total += term
        n += 1.0
        if t < 0.0 and total > 1e300:
            total, term, log_scale = total * 1e-300, term * 1e-300, log_scale + _LOG_1E300
    if t >= 0.0:
        return math.log(total)
    return t + log_scale + math.log(total)


def logsumexp(terms: np.ndarray) -> float:
    """ln sum exp(terms) of a 1-D array.

    The largest term is shifted out and the rest enter through log1p, so a
    sum dominated by one term keeps its digits.  An empty or all -inf array
    gives -inf, a +inf term +inf, and a NaN term NaN.
    """
    if terms.size == 0:
        return -math.inf
    k = int(np.argmax(terms))
    top = float(terms[k])
    if not math.isfinite(top):
        return top
    rest = np.exp(terms - top)
    rest[k] = 0.0
    return top + math.log1p(float(rest.sum()))
