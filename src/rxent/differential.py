"""Differential Renyi cross-entropy in closed form.

Two independent routes are provided for pairs inside one exponential
family.  Both write the value as a function of t = alpha - 1 without a
1/(1 - alpha) cancellation, so t = 0 gives the Shannon cross-entropy
-E_1[ln f2] from the same formula:

* ``cross_entropy_natural`` works entirely in the representation
  f = b exp(eta . T + A): with eta_h = eta1 + t eta2,

      h_alpha(f1; f2) = [A(eta_h) - A(eta1)] / t - ln E_h[b^t] / t - A(eta2),

  where E_h is the expectation under the member eta_h and both quotients
  are the family's divided differences.
* ``cross_entropy_closed`` evaluates the per-family formulas obtained by
  carrying out that algebra analytically, from log1p(t r) / t and ln Gamma
  divided differences.

The two agree to ~1e-12 wherever the defining integral converges, and both
flag the same divergences; keeping both routes makes each an internal check
of the other, with direct quadrature of the defining integral as the final
referee.  Special-case reducers (uniform source or reference, exponential or
Gaussian reference via moment generating functions) and the zero-mean
multivariate Gaussian form round out the module.  The reducers work with
ln M and, at the alpha -> 1 marker, with the moment each MGF declares.
Every MGF built here is a closed form except the centered square of a Gamma
or Beta source, which is integrated by ``oracle.mgf_numeric``.

A divergent defining integral yields value +inf when alpha < 1 and -inf
when alpha > 1 (the 1/(1-alpha) prefactor flips the sign of ln(+inf)).  For
the reducers that is every order whose MGF argument lies outside the MGF
finiteness interval, where ln M = +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import oracle
from .alpha import AlphaOrder
from .errors import (
    DimensionMismatchError,
    DoubleRangeError,
    InfiniteSupportError,
    InvalidAlphaError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    OutOfDomainError,
)
from .expfam import (
    LOG_2PI,
    ExpFamilyDistribution,
    Family,
    combine_natural,
    log_base_expectation,
    log_partition,
    log_partition_slope,
    to_natural,
)
from .linalg import (
    as_symmetric_matrix,
    cholesky_lower,
    relative_eigenvalues,
    spd_logdet,
)
from .specfun import (
    betaln,
    betaln_slope,
    erfcx,
    gammaln,
    gammaln_slope,
    log1p_slope,
    log1p_slope_sum,
    log_kummer,
)
from .support import SupportSpec


class Method(Enum):
    """How a cross-entropy value was produced."""

    NATURAL_PARAMS = "natural_params"
    CLOSED_FORM = "closed_form"
    SPECIAL_CASE = "special_case"


@dataclass(frozen=True)
class CrossEntropyResult:
    """A cross-entropy value with its provenance.

    ``diverged`` is True exactly when the defining integral diverges, in
    which case ``value`` is +inf (alpha < 1) or -inf (alpha > 1).
    """

    value: float
    method: Method
    diverged: bool = False

    def __float__(self) -> float:
        return self.value


def _diverged(alpha: AlphaOrder, method: Method) -> CrossEntropyResult:
    value = math.inf if alpha.value < 1.0 else -math.inf
    return CrossEntropyResult(value, method, diverged=True)


def _finite(value: float, method: Method) -> CrossEntropyResult:
    if math.isinf(value):
        return CrossEntropyResult(value, method, diverged=True)
    return CrossEntropyResult(float(value), method)


def _check_pair(f1: ExpFamilyDistribution, f2: ExpFamilyDistribution):
    if f1.family is not f2.family:
        raise InvalidParameterError(
            f"distributions must share a family, got {f1.family.value} and "
            f"{f2.family.value}"
        )
    if f1.family is Family.LAPLACE_EQUAL_MEAN and f1.params[0] != f2.params[0]:
        raise InvalidParameterError(
            "Laplace cross-entropy has a closed form only for equal locations, "
            f"got {f1.params[0]} and {f2.params[0]}"
        )


def cross_entropy_natural(
    f1: ExpFamilyDistribution, f2: ExpFamilyDistribution, alpha
) -> CrossEntropyResult:
    """Cross-entropy through the combined natural parameter.

    Uses only the family's (b, T, eta, A) representation (see the module
    docstring); at t = 0 the divided differences give the Shannon value
    -E_1[ln b] - eta2 . E_1[T] - A(eta2).  The combined parameter leaves the
    natural domain exactly when the defining integral diverges.
    """
    _check_pair(f1, f2)
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    eta1, eta2 = to_natural(f1), to_natural(f2)
    try:
        eta_h = combine_natural(eta1, eta2, alpha)
    except OutOfDomainError:
        return _diverged(alpha, Method.NATURAL_PARAMS)
    t = alpha.value - 1.0
    value = (log_partition_slope(eta1, eta2, t) - log_base_expectation(eta_h, alpha)
             - log_partition(eta2))
    return _finite(value, Method.NATURAL_PARAMS)


def cross_entropy_closed(
    f1: ExpFamilyDistribution, f2: ExpFamilyDistribution, alpha
) -> CrossEntropyResult:
    """Per-family closed form of the order-alpha cross-entropy.

    Each branch spells out its existence condition; outside it the result
    is a divergence marker, never an approximation.  Every formula is a
    function of t = alpha - 1 built from log1p(t r) / t and
    [ln Gamma(x + c t) - ln Gamma(x)] / t, whose limits r and c psi(x) make
    t = 0 the Shannon cross-entropy -E_1[ln f2].
    """
    _check_pair(f1, f2)
    if f1.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        raise InvalidParameterError(
            "use cross_entropy_multivariate_gaussian for covariance inputs"
        )
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    t, m = alpha.value - 1.0, Method.CLOSED_FORM

    if f1.family is Family.BETA:
        a1, b1 = f1.params
        a2, b2 = f2.params
        if a1 + t * (a2 - 1) <= 0 or b1 + t * (b2 - 1) <= 0:
            return _diverged(alpha, m)
        return _finite(betaln(a2, b2) - betaln_slope(a1, b1, a2 - 1, b2 - 1, t), m)

    if f1.family is Family.CHI_SQUARED:
        nu1, = f1.params
        nu2, = f2.params
        nu_h = nu1 + t * (nu2 - 2)
        if nu_h <= 0:
            return _diverged(alpha, m)
        value = (-gammaln_slope(nu1 / 2, nu2 / 2 - 1, t) + (nu_h / 2) * log1p_slope(t, 1.0)
                 + math.log(2) + gammaln(nu2 / 2))
        return _finite(value, m)

    if f1.family is Family.EXPONENTIAL:
        lam1, = f1.params
        lam2, = f2.params
        if t * (lam2 / lam1) <= -1.0:
            return _diverged(alpha, m)
        return _finite(log1p_slope(t, lam2 / lam1) - math.log(lam2), m)

    if f1.family is Family.GAMMA:
        k1, th1 = f1.params
        k2, th2 = f2.params
        r = th1 / th2  # rate_h th1 = 1 + t r, rate_h = 1/th1 + t/th2
        if k1 + t * (k2 - 1) <= 0 or t * r <= -1.0:
            return _diverged(alpha, m)
        # the scale term [k_h ln th_h - k1 ln th1] / -t, k_h = k1 + t (k2 - 1)
        value = (-gammaln_slope(k1, k2 - 1, t) - (k2 - 1) * math.log(th1)
                 + (k1 + t * (k2 - 1)) * log1p_slope(t, r)
                 + gammaln(k2) + k2 * math.log(th2))
        return _finite(value, m)

    if f1.family is Family.GAUSSIAN:
        mu1, v1 = f1.params
        mu2, v2 = f2.params
        if t * (v1 / v2) <= -1.0:  # v_h = v2 (1 + t v1 / v2) > 0
            return _diverged(alpha, m)
        value = 0.5 * (math.log(2 * math.pi * v2) + log1p_slope(t, v1 / v2)
                       + (mu1 - mu2) ** 2 / (v2 * (1.0 + t * (v1 / v2))))
        return _finite(value, m)

    if f1.family is Family.LAPLACE_EQUAL_MEAN:
        _, s1 = f1.params
        _, s2 = f2.params
        if t * (s1 / s2) <= -1.0:
            return _diverged(alpha, m)
        return _finite(math.log(2 * s2) + log1p_slope(t, s1 / s2), m)

    raise InvalidParameterError(f"no closed form for family {f1.family}")


def cross_entropy_multivariate_gaussian(cov1, cov2, alpha) -> CrossEntropyResult:
    """Cross-entropy of zero-mean multivariate normals.

    With t = alpha - 1 and lambda_i the eigenvalues of cov1 cov2^-1,

        h_alpha = sum_i log1p(t lambda_i) / (2 t)
                  + (1/2) ln det cov2 + (n/2) ln 2 pi,

    finite exactly when every 1 + t lambda_i is positive (always for
    alpha > 1).  At t = 0 the sum is (1/2) tr(cov2^-1 cov1), the Shannon
    value.
    """
    cov1 = as_symmetric_matrix(cov1, name="cov1")
    cov2 = as_symmetric_matrix(cov2, name="cov2")
    if cov1.shape != cov2.shape:
        raise DimensionMismatchError(
            f"covariance shapes differ: {cov1.shape} vs {cov2.shape}"
        )
    n = cov1.shape[0]
    cholesky_lower(cov1, name="cov1")  # SPD check
    lam = relative_eigenvalues(cov1, cov2, name="cov2")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    t = alpha.value - 1.0
    if np.any(1.0 + t * lam <= 0.0):
        return _diverged(alpha, Method.CLOSED_FORM)
    value = 0.5 * (log1p_slope_sum(t, lam) + spd_logdet(cov2, name="cov2") + n * LOG_2PI)
    return _finite(value, Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# Special-case reducers


def cross_entropy_q_uniform(supp: SupportSpec) -> float:
    """Cross-entropy against the uniform reference on a finite support.

    Equals ln |S| for every source p on S and every order alpha, because
    q^(alpha-1) is constant.
    """
    length = supp.length
    if length is None:
        raise InfiniteSupportError(
            "uniform reference needs a finite-length support"
        )
    return math.log(length)


def cross_entropy_p_uniform(
    supp: SupportSpec, q: ExpFamilyDistribution, alpha
) -> CrossEntropyResult:
    """Cross-entropy of the uniform source on S against a density q on S.

        h_alpha = (1/(1-alpha)) [ ln(1/|S|) + ln integral q^(alpha-1) ].

    At alpha = 2 the integral is exactly 1, so the value is ln |S| no matter
    what q is.  q must be a Beta member (the only supported family on a
    bounded interval, so |S| = 1): with t = alpha - 1 the integral is
    B(1 + t (a - 1), 1 + t (b - 1)) / B(a, b)^t, and the value ln B(a, b)
    minus the divided difference of ln B from (1, 1), whose t = 0 limit
    gives the Shannon value (a - 1) + (b - 1) + ln B(a, b).
    """
    if supp.length is None:
        raise InfiniteSupportError("uniform source needs a finite-length support")
    if q.support != supp:
        raise InvalidParameterError(
            f"q must live on the uniform support, got {q.support} vs {supp}"
        )
    if q.family is not Family.BETA:
        raise InvalidParameterError("uniform-source reduction expects a Beta reference")
    qa, qb = q.params
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    t, m = alpha.value - 1.0, Method.SPECIAL_CASE
    if t * (qa - 1.0) <= -1.0 or t * (qb - 1.0) <= -1.0:
        return _diverged(alpha, m)
    return _finite(betaln(qa, qb) - betaln_slope(1.0, 1.0, qa - 1.0, qb - 1.0, t), m)


_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class MgfFunction:
    """A moment generating function M(t) = E[exp(t X)], in log form.

    ``log_fn`` returns ln M(t) on the finiteness interval (lower, upper),
    which holds its upper end when ``upper_closed`` is set; ``mean`` is the
    first moment M'(0), which the reducers read at the alpha -> 1 marker.
    The reducers go through ``log``, so ln M never passes through exp.
    Outside the interval M is infinite and ``log`` returns +inf.  Inside it
    a non-finite ln M is an overflow, not a divergence, and raises
    DoubleRangeError.  The constructor spot-checks M(0) = 1.
    """

    log_fn: Callable[[float], float]
    mean: float
    lower: float = -math.inf
    upper: float = math.inf
    upper_closed: bool = False

    def __post_init__(self):
        at_zero = self.log_fn(0.0)
        if not math.isclose(at_zero, 0.0, abs_tol=1e-8):
            raise InvalidParameterError(f"an MGF must satisfy M(0) = 1, got ln M(0) = {at_zero!r}")

    def contains(self, t: float) -> bool:
        return self.lower < t and (t < self.upper or (self.upper_closed and t == self.upper))

    def log(self, t: float) -> float:
        """ln M(t); +inf outside the finiteness interval."""
        t = float(t)
        if not math.isfinite(t):
            raise DoubleRangeError(f"MGF argument {t} exceeds the double range")
        if not self.contains(t):
            return math.inf
        log_m = float(self.log_fn(t))
        if not math.isfinite(log_m):
            raise DoubleRangeError(f"ln M({t:g}) = {log_m} exceeds the double range")
        return log_m


def _mean_variance(d: ExpFamilyDistribution) -> tuple[float, float]:
    """Mean and variance of a scalar family member."""
    if d.family is Family.EXPONENTIAL:
        mean = 1.0 / d.params[0]
        return mean, mean * mean
    if d.family is Family.GAMMA:
        k, theta = d.params
        return k * theta, k * theta * theta
    if d.family is Family.CHI_SQUARED:
        nu, = d.params
        return nu, 2.0 * nu
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        return mu, v
    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, s = d.params
        return mu, 2.0 * s * s
    if d.family is Family.BETA:
        a, b = d.params
        n = a + b
        return a / n, a * b / (n * n * (n + 1.0))
    raise InvalidParameterError(f"no scalar MGF for family {d.family}")


def _log1p_product(u: float, v: float) -> float:
    """ln(1 + u v) for u v > -1 and v > 0, also where the product overflows."""
    uv = u * v
    return math.log1p(uv) if uv < math.inf else math.log(u) + math.log(v)


def mgf_of(d: ExpFamilyDistribution) -> MgfFunction:
    """Moment generating function E[exp(t X)] of a family member, in log form."""
    mean = _mean_variance(d)[0]
    if d.family in (Family.EXPONENTIAL, Family.GAMMA, Family.CHI_SQUARED):
        # Gamma(k, theta): M(t) = (1 - theta t)^(-k) for t < 1/theta
        if d.family is Family.EXPONENTIAL:
            (lam,), k = d.params, 1.0
            theta, upper = 1.0 / lam, lam
        elif d.family is Family.GAMMA:
            k, theta = d.params
            upper = 1.0 / theta
        else:
            k, theta, upper = d.params[0] / 2.0, 2.0, 0.5
        return MgfFunction(log_fn=lambda t: -k * _log1p_product(-t, theta), upper=upper,
                           mean=mean)
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        return MgfFunction(log_fn=lambda t: mu * t + 0.5 * v * t * t, mean=mean)
    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, s = d.params
        return MgfFunction(
            log_fn=lambda t: mu * t - math.log1p(-(s * t) ** 2),
            lower=-1.0 / s,
            upper=1.0 / s,
            mean=mean,
        )
    a, b = d.params  # Beta, the last scalar family: M(t) = 1F1(a; a + b; t)
    return MgfFunction(log_fn=lambda t: log_kummer(a, b, t), mean=mean)


def _log_half_line(kappa: float, e: float, tau: float) -> float:
    """ln of the integral over x > 0 of exp(-kappa x - tau (x + e)^2), kappa, tau > 0.

    Completing the square gives (1/2) sqrt(pi/tau) exp(-tau e^2) erfcx(z)
    with z = sqrt(tau) (kappa/(2 tau) + e).  For z < 0 the same integral is
    (1/2) sqrt(pi/tau) exp(kappa (kappa/(4 tau) + e)) erfc(z), the form of
    erfcx(z) = 2 exp(z^2) - erfcx(-z) whose exponent does not cancel.
    """
    root = math.sqrt(tau)
    z = 0.5 * kappa / root + root * e
    if z > 1e8:
        # erfcx(z) = 1/(z sqrt(pi)) to double precision, and z may have overflowed
        return -tau * e * e - math.log(kappa + 2.0 * tau * e)
    head = 0.5 * (_LOG_PI - math.log(tau)) - math.log(2.0)
    if z >= 0.0:
        return head - tau * e * e + math.log(erfcx(z))
    return head + kappa * (0.25 * kappa / tau + e) + math.log(math.erfc(z))


def mgf_of_centered_square(d: ExpFamilyDistribution, center: float) -> MgfFunction:
    """MGF of Y = (X - center)^2 for X ~ d, in log form.

    Closed forms for Gaussian, Laplace and exponential sources (with
    tau = -t, erfcx sums for the last two).  Gamma and Beta sources go
    through ``oracle.mgf_numeric``; the density integrates to 1, so M(0) = 1
    exactly without quadrature.  The finiteness interval follows the tail:
    bounded support gives the whole line, exponential tails give t <= 0.
    The declared mean is E[Y] = Var X + (E[X] - center)^2.
    """
    center = float(center)
    if not math.isfinite(center):
        raise InvalidParameterError(f"the squared deviation needs a finite center, got {center}")
    if d.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        raise InvalidParameterError("centered-square MGF is for scalar families")
    mean_x, var_x = _mean_variance(d)
    mean = var_x + (mean_x - center) * (mean_x - center)
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        delta = mu - center

        def log_fn(t):
            return delta * t / (1.0 - 2.0 * v * t) * delta - 0.5 * math.log1p(-2.0 * v * t)

        return MgfFunction(log_fn=log_fn, upper=0.5 / v, mean=mean)

    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, s = d.params
        delta, rate, log_norm = mu - center, 1.0 / s, math.log(2.0) + math.log(s)

        def log_fn(t):
            if t == 0.0:
                return 0.0
            return np.logaddexp(_log_half_line(rate, delta, -t),
                                _log_half_line(rate, -delta, -t)) - log_norm
    elif d.family is Family.EXPONENTIAL:
        lam, = d.params
        log_lam = math.log(lam)

        def log_fn(t):
            if t == 0.0:
                return 0.0
            return log_lam + _log_half_line(lam, -center, -t)
    else:
        def log_fn(t):
            if t == 0.0:
                return 0.0
            m = oracle.mgf_numeric(d.support, t, square_center=center, logpdf=d.logpdf)
            return math.log(m) if m > 0.0 else -math.inf

        if d.family is Family.BETA:
            return MgfFunction(log_fn=log_fn, mean=mean)
    return MgfFunction(log_fn=log_fn, upper=0.0, upper_closed=True, mean=mean)


def _special(value: float) -> CrossEntropyResult:
    """A reducer value; one beyond the double range is an error, not a verdict."""
    if not math.isfinite(value):
        raise DoubleRangeError(f"cross-entropy {value} exceeds the double range")
    return CrossEntropyResult(float(value), Method.SPECIAL_CASE)


def cross_entropy_q_exponential(mgf_p: MgfFunction, rate: float, alpha) -> CrossEntropyResult:
    """Cross-entropy of a positive source p against an Exponential(rate).

        h_alpha = -ln rate + (1/(1-alpha)) ln M_p(rate (1-alpha)),

    a divergence verdict when rate (1-alpha) lies outside the MGF finiteness
    interval.  The alpha -> 1 marker uses -ln rate + rate E_p[X].
    """
    rate = float(rate)
    if not math.isfinite(rate):
        raise InvalidParameterError(f"exponential reference needs a finite rate, got {rate}")
    if rate <= 0:
        raise InvalidParameterError(f"exponential reference needs rate > 0, got {rate}")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    if alpha.is_one:
        return _special(-math.log(rate) + rate * mgf_p.mean)
    a = alpha.value
    log_m = mgf_p.log(rate * (1.0 - a))
    if log_m == math.inf:
        return _diverged(alpha, Method.SPECIAL_CASE)
    return _special(-math.log(rate) + log_m / (1.0 - a))


def cross_entropy_q_gaussian(
    mgf_square: MgfFunction,
    mean: float,
    variance: float,
    alpha,
    half_normal: bool = False,
) -> CrossEntropyResult:
    """Cross-entropy against a Gaussian (or half-normal) reference.

    ``mgf_square`` must be the MGF of Y = (X - mean)^2 under the source.

        h_alpha = ln(sigma sqrt(2 pi)) + (1/(1-alpha)) ln M_Y((1-alpha)/(2 sigma^2))

    with sigma sqrt(pi/2) in place of sigma sqrt(2 pi) for the half-normal
    reference (whose mean is pinned at 0 and support to x > 0; the caller
    is responsible for using a positive source there), and a divergence
    verdict when the MGF argument lies outside its finiteness interval.
    """
    variance = float(variance)
    if not (math.isfinite(variance) and math.isfinite(mean)):
        raise InvalidParameterError(
            f"reference mean and variance must be finite, got {mean} and {variance}")
    if variance <= 0:
        raise InvalidParameterError(f"reference variance must be positive, got {variance}")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    const = 0.5 * (LOG_2PI + math.log(variance))
    if half_normal:
        const -= math.log(2.0)
    if alpha.is_one:
        return _special(const + mgf_square.mean / (2.0 * variance))
    a = alpha.value
    log_m = mgf_square.log((1.0 - a) / (2.0 * variance))
    if log_m == math.inf:
        return _diverged(alpha, Method.SPECIAL_CASE)
    return _special(const + log_m / (1.0 - a))
