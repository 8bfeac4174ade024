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
multivariate Gaussian form round out the module.  The MGF reducers work
with the cumulant quotient Q(s) = ln M(s) / s, whose value at s = 0 is the
mean, so each is one formula, a constant plus c Q(s), through alpha = 1.
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

from . import oracle
from .alpha import AlphaOrder, evaluate_orders
from .errors import (
    DimensionMismatchError,
    DoubleRangeError,
    InfiniteSupportError,
    InvalidAlphaError,
    InvalidParameterError,
    OutOfDomainError,
)
from .expfam import (
    LOG_2PI,
    ExpFamilyDistribution,
    Family,
    combine_natural,
    constant_log_base,
    gaussian_log_partition_gap,
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
    log_kummer_slope,
)
from .support import SupportKind, SupportSpec


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
    if not math.isfinite(value):  # its existence check passed: no verdict
        raise DoubleRangeError(f"cross-entropy {value} exceeds the double range")
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


def cross_entropy_natural(f1: ExpFamilyDistribution, f2: ExpFamilyDistribution, alpha):
    """Cross-entropy through the combined natural parameter.

    Uses only the family's (b, T, eta, A) representation (see the module
    docstring); at t = 0 the divided differences give the Shannon value
    -E_1[ln b] - eta2 . E_1[T] - A(eta2).  The combined parameter leaves the
    natural domain exactly when the defining integral diverges.  A sequence
    of orders gives the list of results, from one check of the pair, one
    natural parameter per side, one A(eta2) and, where the base measure is
    constant, one ln b.
    """
    return evaluate_orders(_natural, alpha, f1, f2)


def _natural(f1: ExpFamilyDistribution, f2: ExpFamilyDistribution, orders: list) -> list:
    _check_pair(f1, f2)
    eta1, eta2 = to_natural(f1), to_natural(f2)
    gaussian = f1.family is Family.GAUSSIAN
    # order-free: A(eta2) (the Gaussian gap holds its own), and ln b where the
    # base measure is constant, so that E_h[b^t] is b^t at every order
    a2 = 0.0 if gaussian else log_partition(eta2)
    log_b = constant_log_base(f1.family, len(eta1.components))
    results = []
    for alpha in orders:
        if alpha.is_inf:
            raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
        t = alpha.value - 1.0
        try:
            eta_h = combine_natural(eta1, eta2, alpha)
            base = log_base_expectation(eta_h, alpha) if log_b is None else log_b
            if gaussian:
                value = gaussian_log_partition_gap(eta1, eta2, t) - base
            else:
                value = log_partition_slope(eta1, eta2, t) - base - a2
        except OutOfDomainError:
            results.append(_diverged(alpha, Method.NATURAL_PARAMS))
            continue
        results.append(_finite(value, Method.NATURAL_PARAMS))
    return results


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
        delta = mu1 - mu2
        value = 0.5 * (math.log(2 * math.pi * v2) + log1p_slope(t, v1 / v2)
                       + delta * (delta / (v2 * (1.0 + t * (v1 / v2)))))
        return _finite(value, m)

    if f1.family is Family.LAPLACE_EQUAL_MEAN:
        _, s1 = f1.params
        _, s2 = f2.params
        if t * (s1 / s2) <= -1.0:
            return _diverged(alpha, m)
        return _finite(math.log(2 * s2) + log1p_slope(t, s1 / s2), m)

    raise InvalidParameterError(f"no closed form for family {f1.family}")


def cross_entropy_multivariate_gaussian(cov1, cov2, alpha):
    """Cross-entropy of zero-mean multivariate normals.

    With t = alpha - 1 and lambda_i the eigenvalues of cov1 cov2^-1,

        h_alpha = sum_i log1p(t lambda_i) / (2 t)
                  + (1/2) ln det cov2 + (n/2) ln 2 pi,

    finite exactly when every 1 + t lambda_i is positive (always for
    alpha > 1).  At t = 0 the sum is (1/2) tr(cov2^-1 cov1), the Shannon
    value.  A sequence of orders gives the list of results, from one
    eigen-decomposition and one (orders x n) log1p.
    """
    return evaluate_orders(_multivariate_gaussian, alpha, cov1, cov2)


def _multivariate_gaussian(cov1, cov2, orders: list) -> list:
    cov1 = as_symmetric_matrix(cov1, name="cov1")
    cov2 = as_symmetric_matrix(cov2, name="cov2")
    if cov1.shape != cov2.shape:
        raise DimensionMismatchError(
            f"covariance shapes differ: {cov1.shape} vs {cov2.shape}"
        )
    n = cov1.shape[0]
    cholesky_lower(cov1, name="cov1")  # SPD check
    lam = relative_eigenvalues(cov1, cov2, name="cov2")
    if any(alpha.is_inf for alpha in orders):
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    t = [alpha.value - 1.0 for alpha in orders]
    low, high = float(lam.min(initial=0.0)), float(lam.max(initial=0.0))  # ends of 1 + t lambda
    finite = [1.0 + u * (high if u < 0.0 else low) > 0.0 for u in t]
    sums = iter(log1p_slope_sum([u for u, ok in zip(t, finite) if ok], lam))
    logdet = spd_logdet(cov2, name="cov2")
    return [_finite(0.5 * (next(sums) + logdet + n * LOG_2PI), Method.CLOSED_FORM) if ok
            else _diverged(alpha, Method.CLOSED_FORM) for alpha, ok in zip(orders, finite)]


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


_UNIFORM_BETA = ExpFamilyDistribution.beta(1.0, 1.0)  # the uniform density on (0, 1)


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
    gives the Shannon value (a - 1) + (b - 1) + ln B(a, b): the Beta closed
    form with the source Beta(1, 1), which supplies value and verdict.
    """
    if supp.length is None:
        raise InfiniteSupportError("uniform source needs a finite-length support")
    if q.support != supp:
        raise InvalidParameterError(
            f"q must live on the uniform support, got {q.support} vs {supp}"
        )
    if q.family is not Family.BETA:
        raise InvalidParameterError("uniform-source reduction expects a Beta reference")
    closed = cross_entropy_closed(_UNIFORM_BETA, q, alpha)
    return CrossEntropyResult(closed.value, Method.SPECIAL_CASE, closed.diverged)


_LOG_PI, _LOG_2 = math.log(math.pi), math.log(2.0)


@dataclass(frozen=True)
class MgfFunction:
    """A moment generating function M(s) = E[exp(s Z)], as its cumulant
    quotient Q(s) = ln M(s) / s.

    ``quotient_fn`` returns Q on the finiteness interval (lower, upper),
    which holds its upper end when ``upper_closed`` is set, and its limit
    Q(0) = E[Z] at s = 0: ln M = s Q cannot express an M(0) other than 1.
    Z is the source X, or (X - center)^2 when ``center`` is set, and
    ``support`` is the support of X; the reducers check both.
    """

    quotient_fn: Callable[[float], float]
    support: SupportSpec
    center: float | None = None
    lower: float = -math.inf
    upper: float = math.inf
    upper_closed: bool = False

    def contains(self, s: float) -> bool:
        return self.lower < s and (s < self.upper or (self.upper_closed and s == self.upper))

    def quotient(self, s: float) -> float:
        """Q(s); +inf / s outside the finiteness interval, where ln M = +inf,
        and DoubleRangeError where Q overflows inside it."""
        s = float(s)
        if not math.isfinite(s):
            raise DoubleRangeError(f"MGF argument {s} exceeds the double range")
        if not self.contains(s):
            return math.copysign(math.inf, s)
        q = float(self.quotient_fn(s))
        if not math.isfinite(q):
            raise DoubleRangeError(f"ln M({s:g}) = {s * q} exceeds the double range")
        return q


def _gamma_shape(d: ExpFamilyDistribution) -> tuple[float, float, float]:
    """(k, theta, 1 / theta) of an exponential, Gamma or chi-squared member."""
    if d.family is Family.EXPONENTIAL:
        return 1.0, 1.0 / d.params[0], d.params[0]
    if d.family is Family.GAMMA:
        return d.params[0], d.params[1], 1.0 / d.params[1]
    return d.params[0] / 2.0, 2.0, 0.5


def mgf_of(d: ExpFamilyDistribution) -> MgfFunction:
    """Moment generating function E[exp(s X)] of a scalar family member,
    as its cumulant quotient: log1p slopes, and Kummer's series for Beta."""
    if d.family in (Family.EXPONENTIAL, Family.GAMMA, Family.CHI_SQUARED):
        # Gamma(k, theta): ln M(s) = -k ln(1 - theta s) for s < 1/theta
        k, theta, upper = _gamma_shape(d)
        return MgfFunction(lambda s: -k * log1p_slope(s, -theta), d.support, upper=upper)
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        return MgfFunction(lambda s: mu + 0.5 * v * s, d.support)
    if d.family is Family.LAPLACE_EQUAL_MEAN:
        # ln M(s) = mu s - ln(1 - b^2 s^2) for |s| < 1/b
        mu, b = d.params
        return MgfFunction(lambda s: mu - log1p_slope(s, -b * b * s), d.support,
                           lower=-1.0 / b, upper=1.0 / b)
    if d.family is not Family.BETA:
        raise InvalidParameterError(f"no scalar MGF for family {d.family}")
    a, b = d.params  # M(s) = 1F1(a; a + b; s)
    return MgfFunction(lambda s: log_kummer_slope(a, b, s), d.support)


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


# |s| E[Y] up to which a centered square takes its moment series: the first
# term left out is of relative order (s E[Y])^5, below double precision,
# while ln M(s) / s from the erfcx form would lose digits next to M = 1
_SERIES_REACH = 1e-4


def _square_quotient(mean: float, ratio: float, lag: int, shift: float,
                     log_mgf: Callable[[float], float]) -> Callable[[float], float]:
    """Q(s) of Y = (V + shift)^2, E[Y] = ``mean``, from ln M_Y, for a V whose
    raw moments are E[V^j] = j! ratio^(j / lag) where lag divides j, else 0.

    Above |s| E[Y] = 1e-4, ln M(s) / s.  Up to there, which only orders next
    to 1 reach, log1p(s R) / s with M - 1 = s R summed to s^5 from the
    moments E[Y^n] = (2n)! e_2n, e_k = E[(V + shift)^k] / k! = shift^k / k!
    + ratio e_(k - lag): the cumulant series to the fifth, E[Y] at s = 0.
    """
    def quotient(s):
        if abs(s) * mean > _SERIES_REACH:
            return log_mgf(s) / s
        if s == 0.0:
            return mean
        e, power = [1.0], 1.0
        for k in range(1, 11):
            power *= shift / k
            e.append(power + (ratio * e[k - lag] if k >= lag else 0.0))
        return log1p_slope(s, sum(math.factorial(2 * n) / math.factorial(n) * e[2 * n]
                                  * s ** (n - 1) for n in range(1, 6)))

    return quotient


def mgf_of_centered_square(d: ExpFamilyDistribution, center: float) -> MgfFunction:
    """MGF of Y = (X - center)^2 for X ~ d, as its cumulant quotient.

    Closed forms for Gaussian, Laplace and exponential sources: a log1p
    slope for the first, and for the other two (with tau = -s) erfcx sums
    above |s| E[Y] = 1e-4 and the moment series below.  Gamma and Beta
    sources take one quadrature per order through ``oracle.mgf_numeric``,
    and none at s = 0, where Q is the closed-form E[Y] = Var X +
    (E[X] - center)^2.  The finiteness interval follows the tail: bounded
    support gives the whole line, exponential tails give s <= 0.
    """
    center = float(center)
    if not math.isfinite(center):
        raise InvalidParameterError(f"the squared deviation needs a finite center, got {center}")
    if d.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        raise InvalidParameterError("centered-square MGF is for scalar families")
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        delta = mu - center

        def quotient_fn(s):
            return delta / (1.0 - 2.0 * v * s) * delta - 0.5 * log1p_slope(s, -2.0 * v)

        return MgfFunction(quotient_fn, d.support, center, upper=0.5 / v)

    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, b = d.params
        delta, rate, log_norm = mu - center, 1.0 / b, math.log(2.0) + math.log(b)

        def log_mgf(s):
            right, left = _log_half_line(rate, delta, -s), _log_half_line(rate, -delta, -s)
            if right == left:  # also two equal infinities, whose difference is nan
                return right + _LOG_2 - log_norm
            return max(right, left) + math.log1p(math.exp(-abs(right - left))) - log_norm

        # X - center = delta + Z with E[Z^j] = j! b^j for even j, 0 for odd j
        quotient_fn = _square_quotient(2.0 * b * b + delta * delta, b * b, 2, delta, log_mgf)
    elif d.family is Family.EXPONENTIAL:
        lam, = d.params

        def log_mgf(s):
            return math.log(lam) + _log_half_line(lam, -center, -s)

        theta = 1.0 / lam  # E[X^j] = j! theta^j
        quotient_fn = _square_quotient(theta * theta + (theta - center) * (theta - center),
                                       theta, 1, -center, log_mgf)
    else:
        if d.family is Family.BETA:
            a, b = d.params
            n = a + b
            mean_x, var_x = a / n, a * b / (n * n * (n + 1.0))
        else:
            k, theta, _ = _gamma_shape(d)
            mean_x, var_x = k * theta, k * theta * theta
        mean = var_x + (mean_x - center) * (mean_x - center)

        def quotient_fn(s):
            return oracle.mgf_numeric(d.support, s, center, logpdf=d.logpdf, mean=mean)

        if d.family is Family.BETA:
            return MgfFunction(quotient_fn, d.support, center)
    return MgfFunction(quotient_fn, d.support, center, upper=0.0, upper_closed=True)


def _require_half_line(mgf: MgfFunction, reference: str) -> None:
    if mgf.support.kind is SupportKind.ALL_REALS or mgf.support.lower < 0.0:
        raise InvalidParameterError(f"the {reference} reference needs a source supported on x > 0")


def _special(alpha: AlphaOrder, q: float, value: float) -> CrossEntropyResult:
    """A reducer value const + c Q(s): the divergence verdict where Q(s) is
    infinite (s outside the MGF finiteness interval), and an error where
    the value exceeds the double range."""
    if math.isinf(q):
        return _diverged(alpha, Method.SPECIAL_CASE)
    return _finite(value, Method.SPECIAL_CASE)


def cross_entropy_q_exponential(mgf_p: MgfFunction, rate: float, alpha) -> CrossEntropyResult:
    """Cross-entropy of a positive source p against an Exponential(rate).

    ``mgf_p`` must be the MGF of X under the source.  With s = rate (1 - alpha),

        h_alpha = -ln rate + (1/(1-alpha)) ln M_p(s) = -ln rate + rate Q_p(s),

    one formula for every order: at alpha = 1, Q_p(0) = E_p[X] gives the
    Shannon value.  A divergence verdict where s lies outside the MGF
    finiteness interval.
    """
    _require_half_line(mgf_p, "exponential")
    if mgf_p.center is not None:
        raise InvalidParameterError(
            "the exponential reference needs the MGF of X, not of a centered square")
    rate = float(rate)
    if not math.isfinite(rate):
        raise InvalidParameterError(f"exponential reference needs a finite rate, got {rate}")
    if rate <= 0:
        raise InvalidParameterError(f"exponential reference needs rate > 0, got {rate}")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    q = mgf_p.quotient(rate * (1.0 - alpha.value))
    return _special(alpha, q, -math.log(rate) + rate * q)


def cross_entropy_q_gaussian(
    mgf_square: MgfFunction,
    mean: float,
    variance: float,
    alpha,
    half_normal: bool = False,
) -> CrossEntropyResult:
    """Cross-entropy against a Gaussian (or half-normal) reference.

    ``mgf_square`` must be the MGF of Y = (X - mean)^2 under the source.
    With s = (1 - alpha) / (2 sigma^2),

        h_alpha = ln(sigma sqrt(2 pi)) + (1/(1-alpha)) ln M_Y(s)
                = ln(sigma sqrt(2 pi)) + Q_Y(s) / (2 sigma^2),

    with sigma sqrt(pi/2) in place of sigma sqrt(2 pi) for the half-normal
    reference, whose mean is pinned at 0 and which needs a source on x > 0.
    At alpha = 1, Q_Y(0) = E[Y] gives the Shannon value; a divergence
    verdict where s lies outside the MGF finiteness interval.
    """
    reference = "half-normal" if half_normal else "Gaussian"
    if half_normal:
        _require_half_line(mgf_square, reference)
    variance = float(variance)
    if not (math.isfinite(variance) and math.isfinite(mean)):
        raise InvalidParameterError(
            f"reference mean and variance must be finite, got {mean} and {variance}")
    if variance <= 0:
        raise InvalidParameterError(f"reference variance must be positive, got {variance}")
    if mgf_square.center != mean or (half_normal and mean != 0.0):
        raise InvalidParameterError(
            f"the {reference} reference needs the MGF of (X - {0.0 if half_normal else mean})^2, "
            f"got center {mgf_square.center}")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    const = 0.5 * (LOG_2PI + math.log(variance)) - (math.log(2.0) if half_normal else 0.0)
    q = mgf_square.quotient((1.0 - alpha.value) / (2.0 * variance))
    return _special(alpha, q, const + q / (2.0 * variance))
