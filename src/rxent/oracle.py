"""Reference values for cross-entropy integrals, and the one quadrature rule.

Every closed form is checked against direct numeric evaluation of its
defining integral, and the numeric MGF of Gamma and Beta centered squares
is the one integral on a production path.  Both go through ``quad``, a
double-exponential rule split at the caller's kinks, at 0 on the line and
at the integrand's own peak; divergence is read from the integrand's power
law at the ends of the support.  Densities enter only as logarithms, by
keyword; the cross-entropy integrand is integrated as a logarithm, so its
integral may lie outside the double range.  The bivariate Gaussian referee
sums its integrand on lattices refined until two agree.  Nothing here calls
a closed form: from the package it imports only alpha, errors and support.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .alpha import AlphaOrder
from .errors import InvalidAlphaError, InvalidParameterError, NonConvergenceError
from .support import SupportKind, SupportSpec

_LOG_2 = math.log(2.0)

# Levels take steps 1, 1/2, ... 2^-_MAX_LEVEL in t, to |t| = _T_MAX, and stop
# once two agree to _TOLERANCE of the integral of |f|; an error estimate,
# end laws included, above _ACCEPT of it is refused.  A side reaches to
# where its terms have decayed by e^-_DECAY, then to its outermost term
# above _PRUNE of the largest.  End powers within _EDGE of -1 read as -1.
# A law rising toward an infinite end from below _LOG_TINY, the log of the
# least double, is the flank of a peak past the farthest node.
_MAX_LEVEL, _T_MAX = 9, 16.0
_TOLERANCE, _ACCEPT = 1e-10, 1e-9
_DECAY, _PRUNE, _EDGE = 50.0, 1e-20, 1e-10
_LOG_TINY = math.log(5e-324)
# golden section of the peak, to 2^-30 relative
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0
_PEAK_PRECISION = 2.0 ** -30
# 2-D grid oracle: half-width in standard deviations, intervals per axis at
# the first and the last level, nodes per block, and the stopping agreement
_GRID_SD_MULTIPLE = 12.0
_GRID_FIRST_INTERVALS = 16
_GRID_MAX_INTERVALS = 1024
_GRID_BLOCK = 1 << 16
_GRID_TOLERANCE = 1e-13


def _ln_abs(v: float) -> float:
    return math.log(abs(v)) if v else -math.inf


@functools.cache
def _rows(level: int, kind: str) -> tuple:
    """Rows (|t|, d, ln d, w, ln w) of the nodes a level adds to one side of
    a piece: t = 0, 1, 2, ... at level 0, the odd multiples of 2^-k at level
    k.  d is the distance from the side's end and w = dd/dt, in units of the
    width for tanh-sinh ("ts"); "near" and "far" are exp-sinh."""
    step, rows = 2.0 ** -level, []
    t = 0.0 if level == 0 else step
    while t <= _T_MAX:
        u = 0.5 * math.pi * math.sinh(t)
        if kind == "ts":  # d = e^-2u / (1 + e^-2u)
            ln_d = -2.0 * u - math.log1p(math.exp(-2.0 * u))
            ln_w = math.log(math.pi * math.cosh(t)) + ln_d - math.log1p(math.exp(-2.0 * u))
        else:
            ln_d = u if kind == "far" else -u
            ln_w = math.log(0.5 * math.pi * math.cosh(t)) + ln_d
        # past e^709 only the logarithms are read
        rows.append((t, math.exp(min(ln_d, 709.0)), ln_d, math.exp(min(ln_w, 709.0)), ln_w))
        t += step if level == 0 else 2.0 * step
    return tuple(rows)


def _end_law(f, end: float, inward: float, log: bool) -> tuple:
    """(diverges, ref, L, e, sign, spread): ln|f| = L + e ln(d / ref) at a
    distance d from a support end, from probes at ref, 4 ref, 16 ref (ref a
    power of two just above the rounding of x there) or at 2^332, 2^249,
    2^166; spread is e less the slope of the outer pair of probes."""
    if math.isinf(end):  # 2^332 is also the farthest node evaluated there
        xs = [-inward * 2.0 ** k for k in (332, 249, 166)]
    else:
        ref = 2.0 ** (-600 if end == 0.0 else math.frexp(end)[1] - 47)
        xs = [end + inward * ref * k for k in (1.0, 4.0, 16.0)]
    ds = [abs(x - end) if math.isfinite(end) else abs(x) for x in xs]  # exact
    values = [f(x) for x in xs]
    logs = values if log else [_ln_abs(v) for v in values]
    e, outer = ((logs[i] - logs[i + 1]) / math.log(ds[i] / ds[i + 1]) for i in (0, 1))
    if e != e:  # f is 0 at both inner probes: no power decays faster
        e = -math.inf if math.isinf(end) else math.inf
    diverges = (any(v != v or v == math.inf for v in logs)
                or (e >= -1.0 - _EDGE if math.isinf(end) else e <= -1.0 + _EDGE))
    if diverges and math.isinf(end) and logs[0] < _LOG_TINY:
        raise NonConvergenceError("the integrand rises past its farthest node to an infinite end")
    return diverges, ds[0], logs[0], e, 1.0 if log else math.copysign(1.0, values[0]), abs(e - outer)


class _Side:
    """Nodes x = origin + direction d at the distances scale * d of
    ``_rows``; nearer the end than the law's ref (beyond it on a far side)
    the integrand is the law's, and next to a support end other than 0 an
    f at an x that rounds is scaled by (d / d_rounded)^e."""

    def __init__(self, kind, origin, direction, scale, law):
        self.kind, self.origin, self.direction, self.scale, self.law = (
            kind, origin, direction, scale, law)
        _, ref, _, e, _, _ = law  # e is 0 at a cut inside the support
        self.fix = kind != "far" and origin != 0.0 and 0.0 < abs(e) < math.inf
        depth = abs(math.log(ref / scale)) if ref else 0.0  # nodes reach ref
        self.limit = math.asinh(max(_DECAY / abs(e + 1.0), depth)
                                / (math.pi if kind == "ts" else 0.5 * math.pi))
        if self.limit > _T_MAX:
            raise NonConvergenceError(f"end power {e:.12g} is too near the divergent -1")
        self.outer = 0.0

    def sweep(self, f, level, log, top, biggest):
        """(sum, sum of |.|, largest |.|) of the side's terms at a level."""
        rows = _rows(level, self.kind)
        if level == 0 and (self.kind == "near" or self.kind == "ts" and self.direction > 0):
            rows = rows[1:]  # t = 0 belongs to the other side
        origin, direction, scale, limit, fix = (
            self.origin, self.direction, self.scale, self.limit, self.fix)
        _, ref, big_l, e, sign, _ = self.law
        far, ln_scale, ln_ref = self.kind == "far", math.log(scale), math.log(ref or 1.0)
        shift = ln_scale - top
        exp, total, mass, outer = math.exp, 0.0, 0.0, 0.0
        for t, d, ln_d, w, ln_w in rows:
            if t > limit:
                break
            d *= scale
            if d > ref if far else d < ref:
                term = sign * exp(big_l + e * (ln_d + ln_scale - ln_ref) + shift + ln_w)
            else:
                x = origin + direction * d
                v = f(x)
                if fix and abs(x - origin) != d:
                    r = d / abs(x - origin)
                    v = v + e * math.log(r) if log else v * r ** e
                term = exp(v + shift + ln_w) if log else v * scale * w
            size = abs(term)
            if size > _PRUNE * biggest:
                outer = t
                if size > biggest:
                    biggest = size
            total += term
            mass += size
        self.outer = max(self.outer, outer)
        return total, mass, biggest


def _peak(ln_f, lower: float, upper: float):
    """(x, ln|f(x)|) at the largest log-integrand: the best of a scan at
    powers of two out from each finite end (from 0 on the line) until it
    falls e^50 below the best, refined by golden section between its
    neighbours; x is None where the best is the scan's outermost point."""
    seen, line = {}, math.isinf(lower) and math.isinf(upper)

    def look(x):
        v = ln_f(x)
        seen[x] = v if v == v else -math.inf
        return seen[x]

    if line:
        look(0.0)
    unit = 2.0 ** -40 * (1.0 if math.isinf(upper - lower) else upper - lower)
    for origin, way in ((0.0, 1.0), (0.0, -1.0)) if line else ((lower, 1.0), (upper, -1.0)):
        top = max(seen.values(), default=-math.inf)
        for k in range(0, 1061, 4) if math.isfinite(origin) else ():
            x = origin + way * math.ldexp(unit, k)
            if not lower < x < upper:
                if x == origin:
                    continue
                break
            top = max(top, look(x))
            if seen[x] < top - _DECAY:
                break
    xs = sorted(x for x in seen if lower < x < upper)
    values = [seen[x] for x in xs]
    i = max(range(len(xs)), key=values.__getitem__)
    if i in (0, len(xs) - 1) or xs[i] == 0.0:  # 0 is a cut on the line anyway
        return None, values[i]
    (lo, f_lo), (x, top), (hi, f_hi) = zip(xs[i - 1:i + 2], values[i - 1:i + 2])
    for _ in range(200):  # golden section into the peak's e-fold, then to 2^-30 relative
        if hi - lo <= max(8.0 * math.ulp(x), _PEAK_PRECISION * abs(x) * (min(f_lo, f_hi) > top - 1.0)):
            break
        u = x + _GOLDEN * ((hi if hi - x > x - lo else lo) - x)
        fu = ln_f(u)
        if fu >= top:
            lo, f_lo, hi, f_hi = (x, top, hi, f_hi) if u > x else (lo, f_lo, x, top)
            x, top = u, fu
        else:
            lo, f_lo, hi, f_hi = (lo, f_lo, u, fu) if u > x else (u, fu, hi, f_hi)
    return x, top


def quad(f: Callable[[float], float], lower: float, upper: float, points=(),
         log: bool = False) -> tuple[float, float]:
    """(integral, error estimate) of f over (lower, upper), ends possibly
    infinite, split at the kinks ``points``; with ``log`` f is ln of a
    nonnegative integrand and the result (ln of the integral, its error).
    A divergence is (sign * inf, inf).  NonConvergenceError where no two
    levels agree, or the error exceeds 1e-9 of the integral of |f|."""
    laws = [_end_law(f, end, inward, log) for end, inward in ((lower, 1.0), (upper, -1.0))]
    for diverges, _, _, _, sign, _ in laws:
        if diverges:
            return sign * math.inf, math.inf
    peak, top = _peak(f if log else (lambda x: _ln_abs(f(x))), lower, upper)
    top = top if log and math.isfinite(top) else 0.0  # an infinite peak sums to inf
    cuts = sorted({x for x in (*points, peak, 0.0 if lower == -upper == -math.inf else None)
                   if x is not None and lower < x < upper})
    ends = [laws[0]]
    for m in cuts:  # where x rounds to m, f(m); at 0 no x rounds
        v = f(m) if m else 0.0
        ends.append((False, abs(m) * 2.0 ** -44, v if log else _ln_abs(v), 0.0,
                     1.0 if log else math.copysign(1.0, v), 0.0))
    ends.append(laws[1])
    edges, sides = [lower, *cuts, upper], []
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        if math.isinf(b):
            sides += [_Side("near", a, 1.0, 1.0, ends[i]), _Side("far", a, 1.0, 1.0, ends[i + 1])]
        elif math.isinf(a):
            sides += [_Side("near", b, -1.0, 1.0, ends[i + 1]), _Side("far", b, -1.0, 1.0, ends[i])]
        else:
            sides += [_Side("ts", b, -1.0, b - a, ends[i + 1]), _Side("ts", a, 1.0, b - a, ends[i])]
    estimates, biggest = [], 0.0
    for level in range(_MAX_LEVEL + 1):
        total = mass = 0.0
        try:
            for side in sides:
                s, m, biggest = side.sweep(f, level, log, top, biggest)
                total, mass = total + s, mass + m
        except OverflowError:  # exp of a log-integrand far above the scan's peak
            raise NonConvergenceError("the integrand rises e^709 above its scanned peak") from None
        if level:  # the nodes of the levels before count at twice this step
            total, mass = (old / 2.0 + 2.0 ** -level * new for old, new in zip(estimates[-1], (total, mass)))
        if total != total:
            raise NonConvergenceError("the integrand is not a number at a node")
        if math.isinf(total):
            return total, math.inf
        for side in sides:
            side.limit = min(side.limit, side.outer + 2.0 ** -level)
        estimates.append((total, mass))
        err = abs(total - estimates[-2][0]) if level >= 3 else math.inf
        if err <= _TOLERANCE * mass:  # steps 1/4 and 1/8 are the first compared
            break
    else:
        raise NonConvergenceError(f"quadrature did not settle by step 2^-{_MAX_LEVEL}")
    for _, ref, big_l, e, _, spread in laws:  # what the slope error of an end law moves
        tail = math.exp(min(big_l - top + math.log(ref), 709.0)) / abs(e + 1.0)
        err += tail * spread / abs(e + 1.0) if tail else 0.0
    if err > _ACCEPT * mass:
        raise NonConvergenceError(
            f"quadrature error estimate {err / mass:.2e} of the integral of |f| above {_ACCEPT:g}")
    if log:
        return (top + math.log(total), err / total) if total > 0.0 else (-math.inf, 0.0)
    return total, err


def integrate(f: Callable[[float], float], supp: SupportSpec, points=()) -> tuple[float, float]:
    """``quad`` of f over a scalar support, with ``points`` its kinks."""
    return quad(f, *_bounds(supp), points)


def _bounds(supp: SupportSpec) -> tuple[float, float]:
    if supp.kind is SupportKind.INTERVAL:
        return supp.lower, supp.upper
    if supp.kind in (SupportKind.POSITIVE_REALS, SupportKind.ALL_REALS):
        return (0.0 if supp.kind is SupportKind.POSITIVE_REALS else -math.inf), math.inf
    raise InvalidParameterError(f"cannot integrate over support kind {supp.kind}")


def cross_entropy_numeric(supp: SupportSpec, alpha, *, p_logpdf: Callable[[float], float],
                          q_logpdf: Callable[[float], float], points=()) -> float:
    """Order-alpha differential cross-entropy by direct quadrature.

    (1/(1-alpha)) ln integral of p q^(alpha-1) over the common support, or
    -integral of p ln q at the alpha -> 1 marker; with q = p the order-alpha
    entropy.  +inf (alpha < 1) or -inf (alpha > 1) where the integral
    diverges.  ``points`` are kinks, such as a Laplace location.  The
    densities come as logarithms (ln 0 = -inf) and ln p + (alpha - 1) ln q
    is integrated as one, so an underflowing tail of q is not a zero of q
    and an integral beyond the double range is still finite.  Where p's
    mass lies past every node the rule reaches, NonConvergenceError.
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no quadrature form for the alpha -> infinity limit")

    if alpha.is_one:
        def integrand(x):
            lp = p_logpdf(x)
            lq = q_logpdf(x) if lp > -math.inf else 0.0
            return -math.exp(lp) * lq if lq > -math.inf else math.inf

        value = integrate(integrand, supp, points)[0]
        empty = value == 0.0
    else:
        t = alpha.value - 1.0

        def log_integrand(x):
            lp = p_logpdf(x)
            return lp if lp == -math.inf else lp + t * q_logpdf(x)

        value = quad(log_integrand, *_bounds(supp), points, log=True)[0]
        empty, value = value == -math.inf, value / -t
    # an empty integral is a zero of q on all of p, or p's mass out of reach
    if empty and quad(p_logpdf, *_bounds(supp), points, log=True)[0] == -math.inf:
        raise NonConvergenceError("p is 0 at every node: no node reaches its mass")
    return value


def mgf_numeric(supp: SupportSpec, s: float, center: float, *,
                logpdf: Callable[[float], float], mean: float) -> float:
    """Cumulant quotient ln E[exp(s Y)] / s of Y = (X - center)^2 by quadrature.

    X has the log-density ``logpdf`` and Y the mean ``mean``, the value at
    s = 0; s > 0 needs a bounded support.  Where |s E[Y]| <= ln 2 the
    integral m of p expm1(s Y) / s gives log1p(s m) / s, free of the
    cancellation next to M = 1; elsewhere ln M is integrated as a logarithm.
    """
    s = float(s)
    if s == 0.0:
        return mean
    if s > 0.0 and supp.kind is not SupportKind.INTERVAL:
        raise InvalidParameterError("E[exp(s Y)] with s > 0 needs a bounded support")
    if abs(s * mean) > _LOG_2:
        return quad(lambda x: logpdf(x) + s * (x - center) * (x - center), *_bounds(supp),
                    log=True)[0] / s

    def integrand(x):
        lp = logpdf(x)
        y = s * (x - center) * (x - center)  # e^y formed with p where y > 0
        return 0.0 if lp == -math.inf else (
            math.exp(lp) * math.expm1(y) if y <= 0.0 else -math.exp(lp + y) * math.expm1(-y)) / s

    return math.log1p(s * integrate(integrand, supp)[0]) / s


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

    The integrand is summed node by node from each density's log form
    c - x^T K x / 2, as exp(c_p + (alpha-1) c_q - x^T k x / 2) with
    k = K_p + (alpha-1) K_q, or at alpha = 1 as p (-ln q) with k = K_p;
    where k is not positive definite the integral diverges, without
    integrating.  The lattice spans +-12 standard deviations along k's axes,
    where the trapezoid rule converges geometrically; each level halves the
    spacing, evaluating only new nodes in blocks of at most 2^16, until two
    agree to 1e-13 of the integral of |integrand|, or past 1024 intervals
    per axis raises NonConvergenceError.
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
