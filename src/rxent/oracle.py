"""Quadrature reference values for cross-entropy integrals.

Every closed form in this library is checked against direct numeric
evaluation of its defining integral.  Infinite domains are folded onto a
compact interval first (the tangent map x = tan u) so the adaptive rule
sees the whole line; divergence of nonnegative integrands is detected by a
window-doubling probe before the folded integral is attempted.  The probe
keeps a running sum over the shells each doubling adds, so it integrates
no region twice.  Densities enter only as logarithms, passed by keyword
(``p_logpdf=``, ``q_logpdf=``, ``logpdf=``), so a pdf cannot be read as a
log by position.  The cross-entropy integrand is formed in log space and
cut only where it leaves the double range, so a divergent integral reads
as +inf, never as the finite integral of a truncated tail; the order-alpha
entropy is the cross-entropy of p against itself.  The adaptive rule is
QUADPACK's, from ``scipy.integrate``, which is imported when the first
integral runs.  The bivariate Gaussian referee sums its integrand, also
from the densities' log forms, on lattices refined until two agree.

The routines here never call the closed forms they are used to check; the
module imports nothing from the package beyond the order type, the errors
and the supports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .alpha import AlphaOrder
from .errors import InvalidAlphaError, InvalidParameterError, NonConvergenceError
from .support import SupportKind, SupportSpec

# ln of a density below which a factor of |ln q| ~ 1e3 cannot matter at
# any tolerance used here
_LOG_TINY = math.log(1e-290)
# exp() bounds of a double
_LOG_HUGE = 700.0
_LOG_UNDERFLOW = -745.0
_LOG_2 = math.log(2.0)

# Window-doubling probe: partial integrals over windows W, 2W, 4W, ...,
# each the previous partial plus the integral over the shell the doubling
# adds.  An integral is declared divergent when the last _PROBE_RUN
# doublings all grow the partial integral by more than _PROBE_GROWTH, or
# when a partial overflows.  Slowly (logarithmically) divergent integrands
# can escape the growth test; they then fail loudly in the folded integral
# instead.
_PROBE_GROWTH = 1.01
_PROBE_RUN = 5
_PROBE_DOUBLINGS = 24
_PROBE_START_WINDOW = 1.0
_PROBE_OVERFLOW = 1e280

# 2-D grid oracle: half-width in standard deviations, intervals per axis at
# the first and the last level, nodes per block, and the stopping agreement
_GRID_SD_MULTIPLE = 12.0
_GRID_FIRST_INTERVALS = 16
_GRID_MAX_INTERVALS = 1024
_GRID_BLOCK = 1 << 16
_GRID_TOLERANCE = 1e-13


@dataclass(frozen=True)
class QuadratureSettings:
    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise InvalidParameterError("quadrature tolerances must be positive")
        if self.max_subdivisions < 10:
            raise InvalidParameterError("max_subdivisions must be at least 10")


DEFAULT_SETTINGS = QuadratureSettings()


def quad(f, a, b, **options):
    """scipy.integrate.quad; scipy is imported on the first call."""
    from scipy.integrate import quad as adaptive
    return adaptive(f, a, b, **options)


def _quad_interval(f, a, b, settings: QuadratureSettings, points=()):
    """quad with warnings returned instead of emitted; ``points`` are kinks
    inside (a, b) where the adaptive rule splits the interval."""
    from scipy.integrate import IntegrationWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        value, abserr = quad(
            f,
            a,
            b,
            epsabs=settings.absolute_tolerance,
            epsrel=settings.relative_tolerance,
            limit=settings.max_subdivisions,
            points=points or None,
        )
    messages = [str(w.message) for w in caught if issubclass(w.category, IntegrationWarning)]
    divergent = any("divergent" in m for m in messages)
    return value, abserr, messages, divergent


def _folded(f: Callable[[float], float], supp: SupportSpec):
    """Return (g, a, b) with integral of f over supp equal to quad of g on
    (a, b): an infinite domain is folded by x = tan(u)."""
    if supp.kind is SupportKind.INTERVAL:
        return f, supp.lower, supp.upper

    def g(u):
        x = math.tan(u)
        fx = f(x)
        if fx == 0.0:
            return 0.0
        return fx * (1.0 + x * x)

    if supp.kind is SupportKind.POSITIVE_REALS:
        return g, 0.0, math.pi / 2
    if supp.kind is SupportKind.ALL_REALS:
        return g, -math.pi / 2, math.pi / 2
    raise InvalidParameterError(f"cannot integrate over support kind {supp.kind}")


def _folded_quad(f, supp: SupportSpec, settings: QuadratureSettings, points):
    """``_quad_interval`` of f over supp after folding, split at the kinks
    ``points`` of f that lie in supp (a kink x lands at atan(x))."""
    g, a, b = _folded(f, supp)
    inside = [x for x in points if supp.contains(x)]
    if supp.kind is not SupportKind.INTERVAL:
        inside = [math.atan(x) for x in inside]
    return _quad_interval(g, a, b, settings, tuple(u for u in inside if a < u < b))


def integrate(
    f: Callable[[float], float],
    supp: SupportSpec,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    points=(),
) -> tuple[float, float]:
    """Integrate f over a scalar support.

    ``points`` are kinks of f (in x), where the adaptive rule splits the
    domain.  Returns (value, error_estimate).  Raises NonConvergenceError
    when the adaptive rule reports trouble and its error estimate misses
    the requested tolerance, or when the result is not finite.
    """
    value, abserr, messages, divergent = _folded_quad(f, supp, settings, points)
    if divergent or not math.isfinite(value):
        raise NonConvergenceError(
            f"integral did not converge: {messages[0] if messages else 'non-finite value'}"
        )
    tol = max(settings.absolute_tolerance, settings.relative_tolerance * abs(value))
    if messages and abserr > tol:
        raise NonConvergenceError(
            f"quadrature error estimate {abserr:.3e} above tolerance {tol:.3e}: {messages[0]}"
        )
    return value, abserr


def _probe_shells(supp: SupportSpec, k: int) -> tuple[tuple[float, float], ...]:
    """The intervals that doubling k adds to the probe window: the first
    window [0, W] (or [-W, W]) at k = 0, then [W 2^(k-1), W 2^k], mirrored
    on the line."""
    width = _PROBE_START_WINDOW * 2.0 ** k
    if k == 0:
        return ((0.0 if supp.kind is SupportKind.POSITIVE_REALS else -width, width),)
    shells = ((width / 2.0, width),)
    if supp.kind is SupportKind.ALL_REALS:
        shells = ((-width, -width / 2.0),) + shells
    return shells


def _diverges(f, supp: SupportSpec, settings: QuadratureSettings) -> bool:
    """Window-doubling divergence probe for a nonnegative integrand.

    The partial integral over [0, W 2^k] (or [-W 2^k, W 2^k] on the line)
    is the previous partial plus the integral over the shells doubling k
    adds, so no point of the last window is integrated twice.  Only growth
    of the partial integrals and overflow count as evidence; QUADPACK's own
    "probably divergent" flag is ignored here because it also fires on wide
    compact windows of perfectly convergent tails.
    """
    if supp.kind is SupportKind.INTERVAL:
        return False  # compact: endpoint divergence surfaces as a quad warning
    loose = replace(settings, relative_tolerance=1e-8, absolute_tolerance=1e-12,
                    max_subdivisions=200)
    partial = 0.0
    previous = None
    run = 0
    stable = 0
    for k in range(_PROBE_DOUBLINGS + 1):
        for a, b in _probe_shells(supp, k):
            partial += _quad_interval(f, a, b, loose)[0]
        if math.isnan(partial) or partial > _PROBE_OVERFLOW:
            return True
        if previous is not None and previous > 0.0:
            ratio = partial / previous
            run = run + 1 if ratio > _PROBE_GROWTH else 0
            stable = stable + 1 if abs(ratio - 1.0) <= 1e-12 else 0
            if stable >= 3:
                return False  # mass exhausted at this scale
        elif previous is not None and partial > 0.0:
            run += 1  # first mass appearing counts as growth
        previous = partial
    return run >= _PROBE_RUN


def _nonnegative_integral(f, supp: SupportSpec, settings: QuadratureSettings,
                          points=()) -> float:
    """Integral of a nonnegative integrand, or +inf when it diverges;
    ``points`` as for ``integrate``."""
    if _diverges(f, supp, settings):
        return math.inf
    value, abserr, messages, divergent = _folded_quad(f, supp, settings, points)
    if divergent or not math.isfinite(value):
        return math.inf
    tol = max(settings.absolute_tolerance, settings.relative_tolerance * abs(value))
    if messages and abserr > tol:
        raise NonConvergenceError(
            f"quadrature error estimate {abserr:.3e} above tolerance {tol:.3e}: {messages[0]}"
        )
    return value


def cross_entropy_numeric(
    supp: SupportSpec,
    alpha,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    p_logpdf: Callable[[float], float],
    q_logpdf: Callable[[float], float],
    points=(),
) -> float:
    """Order-alpha differential cross-entropy by direct quadrature.

    Evaluates (1/(1-alpha)) ln integral of p q^(alpha-1) over the common
    support; at the alpha -> 1 marker it evaluates -integral of p ln q.
    With q = p this is the order-alpha entropy of p.  Returns +inf
    (alpha < 1) or -inf (alpha > 1) when the defining integral diverges.
    ``points`` are kinks of p or q, such as the location of a Laplace
    density, where the integral is split.

    The densities come as logarithms, with ln 0 = -inf, and the integrand
    is formed in log space.  For alpha < 1 this matters: a reference
    density that underflows to 0.0 in a tail where p is still
    representable would otherwise be indistinguishable from a genuine zero
    of q (where the integrand really is infinite).  Away from alpha = 1 the
    integrand is cut only where exp(ln p + (alpha - 1) ln q) leaves the
    double range, never where p alone is small, so a reference tail that
    outgrows the source is seen as the divergence it is.
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no quadrature form for the alpha -> infinity limit")

    if alpha.is_one:
        def integrand(x):
            lp = p_logpdf(x)
            if lp < _LOG_TINY:
                return 0.0
            lq = q_logpdf(x)
            if lq == -math.inf:
                return math.inf
            return -math.exp(lp) * lq

        value, _ = integrate(integrand, supp, settings, points)
        return value

    a = alpha.value

    def integrand(x):
        lp = p_logpdf(x)
        if lp == -math.inf:
            return 0.0
        lq = q_logpdf(x)
        if lq == -math.inf:
            return math.inf if a < 1.0 else 0.0
        z = lp + (a - 1.0) * lq
        if z > _LOG_HUGE:
            return math.inf
        if z < _LOG_UNDERFLOW:
            return 0.0
        return math.exp(z)

    total = _nonnegative_integral(integrand, supp, settings, points)
    if math.isinf(total):
        return math.inf if a < 1.0 else -math.inf
    if total <= 0.0:
        raise NonConvergenceError("defining integral evaluated to a nonpositive value")
    return math.log(total) / (1.0 - a)


def mgf_numeric(
    supp: SupportSpec,
    s: float,
    center: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    logpdf: Callable[[float], float],
    mean: float,
) -> float:
    """Cumulant quotient ln E[exp(s Y)] / s of Y = (X - center)^2 by quadrature.

    X has the log-density ``logpdf`` (ln 0 = -inf) and Y the mean ``mean``,
    the value at s = 0, which takes no quadrature.  s > 0 needs a bounded
    support.  Where s E[Y] >= -ln 2, so that M >= 1/2, the integrand is
    p expm1(s Y) / s, whose integral m gives log1p(s m) / s without the
    cancellation of ln M next to M = 1; elsewhere it is p exp(s Y), and
    the quotient ln M / s.
    """
    s = float(s)
    if s == 0.0:
        return mean
    if s > 0.0 and supp.kind is not SupportKind.INTERVAL:
        raise InvalidParameterError("E[exp(s Y)] with s > 0 needs a bounded support")
    near_one = s * mean >= -_LOG_2

    def integrand(x):
        lp = logpdf(x)
        if lp == -math.inf:
            return 0.0
        y = s * (x - center) * (x - center)
        if y > _LOG_HUGE:
            return math.inf
        return math.exp(lp) * math.expm1(y) / s if near_one else math.exp(lp + y)

    m = integrate(integrand, supp, settings)[0]
    if near_one:
        return math.log1p(s * m) / s
    return (math.log(m) if m > 0.0 else -math.inf) / s


def gaussian_log_form_2d(cov) -> tuple[float, np.ndarray]:
    """(c, K) with ln N(x; 0, cov) = c - x^T K x / 2 for a 2x2 covariance
    (its symmetric part): K is its inverse and c = -ln(2 pi) - ln(det cov) / 2."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise InvalidParameterError(f"the grid oracle is bivariate only, got shape {cov.shape}")
    (s00, s01), (s10, s11) = cov
    off = 0.5 * (s01 + s10)
    det = s00 * s11 - off * off
    if not (0.0 < det < math.inf and s00 > 0.0):
        raise InvalidParameterError("covariance must be finite and positive definite")
    inverse = np.array([[s11, -off], [-off, s00]]) / det
    return -math.log(2.0 * math.pi) - 0.5 * math.log(det), inverse


def _quadratic(m: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z^T m z at z = (u, v), broadcast over a column u and a row v."""
    return m[0, 0] * u * u + (m[0, 1] + m[1, 0]) * u * v + m[1, 1] * v * v


def _lattice_sums(integrand: Callable, *lattices) -> tuple[float, float]:
    """Sums of integrand and |integrand| on each lattice us x vs, in blocks of _GRID_BLOCK nodes."""
    total = mass = 0.0
    for us, vs in lattices:
        rows = max(1, _GRID_BLOCK // vs.size)
        for lo in range(0, us.size, rows):
            vals = integrand(us[lo:lo + rows, None], vs[None, :])
            total, mass = total + float(vals.sum()), mass + float(np.abs(vals).sum())
    return total, mass


def cross_entropy_grid2d_gaussian(cov1, cov2, alpha) -> float:
    """Cross-entropy of two zero-mean bivariate normals on nested lattices.

    Independent of the matrix closed form: the integrand is summed node by
    node from each density's log form c - x^T K x / 2, as exp(c_p +
    (alpha-1) c_q - x^T k x / 2) with k = K_p + (alpha-1) K_q, or at
    alpha = 1 as p (-ln q) with k = K_p.  Where k is not positive definite
    the integral diverges: +inf, returned without integrating.  The lattice
    spans +-12 standard deviations along k's principal axes, where the
    integrand is exp(-72) of its peak, so the trapezoid rule weighs every
    node alike and converges geometrically.  Each level halves the spacing
    and evaluates only its new nodes, in blocks of at most 2^16, until two
    levels agree to 1e-13 of the integral of |integrand| (so also on a
    value of 0); past 1024 intervals per axis it raises NonConvergenceError.
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no grid form for the alpha -> infinity limit")
    (c_p, k_p), (c_q, k_q) = gaussian_log_form_2d(cov1), gaussian_log_form_2d(cov2)
    a = alpha.value
    k = k_p if alpha.is_one else k_p + (a - 1.0) * k_q
    scales, axes = np.linalg.eigh(k)
    if not scales[0] > 0.0:
        return math.inf if a < 1.0 else -math.inf
    # x = frame y maps the box [-1, 1]^2 onto the lattice's box
    frame = axes * (_GRID_SD_MULTIPLE / np.sqrt(scales))
    form, q_form = (frame.T @ m @ frame for m in (k, k_q))

    def integrand(u, v):
        vals = np.exp(-0.5 * _quadratic(form, u, v))
        return vals * (0.5 * _quadratic(q_form, u, v) - c_q) if alpha.is_one else vals

    t = np.linspace(-1.0, 1.0, _GRID_FIRST_INTERVALS + 1)
    total, mass = _lattice_sums(integrand, (t, t))
    while t.size <= _GRID_MAX_INTERVALS:
        t = np.linspace(-1.0, 1.0, 2 * t.size - 1)
        new_total, new_mass = _lattice_sums(integrand, (t[1::2], t), (t[::2], t[1::2]))
        previous, total, mass = 4.0 * total, total + new_total, mass + new_mass
        if abs(total - previous) <= _GRID_TOLERANCE * mass:  # both in cells of this level
            integral = total * abs(float(np.linalg.det(frame))) * float(t[1] - t[0]) ** 2
            return (math.exp(c_p) * integral if alpha.is_one
                    else (c_p + (a - 1.0) * c_q + math.log(integral)) / (1.0 - a))
    raise NonConvergenceError(f"2-D grid did not settle by {t.size - 1} intervals per axis")
