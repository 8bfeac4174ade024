"""Differential Renyi cross-entropy in closed form.

Two independent routes are provided for pairs inside one exponential
family:

* ``cross_entropy_natural`` works entirely in the representation
  f = b exp(eta . T + A): with eta_h = eta1 + (alpha - 1) eta2,

      h_alpha(f1; f2) = [A(eta1) - A(eta_h) + ln E_h] / (1 - alpha) - A(eta2),

  where E_h is the expectation of b(X)^(alpha-1) under the member eta_h.
* ``cross_entropy_closed`` evaluates the per-family formulas obtained by
  carrying out that algebra analytically.

At the alpha -> 1 marker both routes give the Shannon cross-entropy
-E_1[ln f2] in closed form: the engine as
-E_1[ln b] - eta2 . E_1[T] - A(eta2) with E_1[T] = -grad A(eta1), the
closed route by per-family formulas (digamma means for the ln x
statistics).

The two agree to ~1e-12 wherever the defining integral converges, and both
flag the same divergences; keeping both routes makes each an internal check
of the other, with direct quadrature of the defining integral as the final
referee.  Special-case reducers (uniform source or reference, exponential or
Gaussian reference via moment generating functions) and the zero-mean
multivariate Gaussian form round out the module.

A divergent defining integral yields value +inf when alpha < 1 and -inf
when alpha > 1 (the 1/(1-alpha) prefactor flips the sign of ln(+inf)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.special import betaln, digamma, gammaln, hyp1f1

from . import oracle
from .alpha import AlphaOrder
from .errors import (
    DimensionMismatchError,
    InfiniteSupportError,
    InvalidAlphaError,
    InvalidParameterError,
    MgfDomainError,
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
    mean_log_base,
    mean_statistic,
    to_natural,
)
from .linalg import (
    as_symmetric_matrix,
    cholesky_lower,
    spd_inverse,
    spd_logdet,
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

    Uses only the family's (b, T, eta, A) representation plus the base
    expectation E_h; no per-family cross-entropy formula.  The combined
    parameter leaves the natural domain exactly when the defining integral
    diverges.  At the alpha -> 1 marker it returns
    -E_1[ln b] - eta2 . E_1[T] - A(eta2).
    """
    _check_pair(f1, f2)
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    eta1, eta2 = to_natural(f1), to_natural(f2)
    if alpha.is_one:
        value = (
            -mean_log_base(eta1)
            - float(eta2.components @ mean_statistic(eta1))
            - log_partition(eta2)
        )
        return _finite(value, Method.NATURAL_PARAMS)

    a = alpha.value
    try:
        eta_h = combine_natural(eta1, eta2, alpha)
    except OutOfDomainError:
        return _diverged(alpha, Method.NATURAL_PARAMS)
    value = (
        (log_partition(eta1) - log_partition(eta_h) + log_base_expectation(eta_h, alpha))
        / (1.0 - a)
        - log_partition(eta2)
    )
    return _finite(value, Method.NATURAL_PARAMS)


def cross_entropy_closed(
    f1: ExpFamilyDistribution, f2: ExpFamilyDistribution, alpha
) -> CrossEntropyResult:
    """Per-family closed form of the order-alpha cross-entropy.

    Each branch spells out its existence condition; outside it the result
    is a divergence marker, never an approximation.  The alpha -> 1 marker
    gives the per-family Shannon cross-entropy -E_1[ln f2].
    """
    _check_pair(f1, f2)
    if f1.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        raise InvalidParameterError(
            "use cross_entropy_multivariate_gaussian for covariance inputs"
        )
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    a, one, m = alpha.value, alpha.is_one, Method.CLOSED_FORM

    if f1.family is Family.BETA:
        a1, b1 = f1.params
        a2, b2 = f2.params
        if one:
            psi = digamma(a1 + b1)
            value = betaln(a2, b2) - (a2 - 1) * (digamma(a1) - psi) - (b2 - 1) * (digamma(b1) - psi)
            return _finite(value, m)
        a_h = a1 + (a - 1) * (a2 - 1)
        b_h = b1 + (a - 1) * (b2 - 1)
        if a_h <= 0 or b_h <= 0:
            return _diverged(alpha, m)
        value = betaln(a2, b2) + (betaln(a_h, b_h) - betaln(a1, b1)) / (1.0 - a)
        return _finite(value, m)

    if f1.family is Family.CHI_SQUARED:
        nu1, = f1.params
        nu2, = f2.params
        if one:
            value = gammaln(nu2 / 2) + math.log(2) + nu1 / 2 - (nu2 / 2 - 1) * digamma(nu1 / 2)
            return _finite(value, m)
        nu_h = nu1 + (a - 1) * (nu2 - 2)
        if nu_h <= 0:
            return _diverged(alpha, m)
        value = (
            (gammaln(nu_h / 2) - gammaln(nu1 / 2) - (nu_h / 2) * math.log(a))
            / (1.0 - a)
            + math.log(2)
            + gammaln(nu2 / 2)
        )
        return _finite(value, m)

    if f1.family is Family.EXPONENTIAL:
        lam1, = f1.params
        lam2, = f2.params
        if one:
            return _finite(lam2 / lam1 - math.log(lam2), m)
        lam_h = lam1 + (a - 1) * lam2
        if lam_h <= 0:
            return _diverged(alpha, m)
        value = math.log(lam1 / lam_h) / (1.0 - a) - math.log(lam2)
        return _finite(value, m)

    if f1.family is Family.GAMMA:
        k1, th1 = f1.params
        k2, th2 = f2.params
        if one:
            value = (gammaln(k2) + k2 * math.log(th2) + k1 * th1 / th2
                     - (k2 - 1) * (digamma(k1) + math.log(th1)))
            return _finite(value, m)
        k_h = k1 + (a - 1) * (k2 - 1)
        rate_h = 1.0 / th1 + (a - 1) / th2
        if k_h <= 0 or rate_h <= 0:
            return _diverged(alpha, m)
        th_h = 1.0 / rate_h
        value = (
            (gammaln(k_h) + k_h * math.log(th_h) - gammaln(k1) - k1 * math.log(th1))
            / (1.0 - a)
            + gammaln(k2)
            + k2 * math.log(th2)
        )
        return _finite(value, m)

    if f1.family is Family.GAUSSIAN:
        mu1, v1 = f1.params
        mu2, v2 = f2.params
        if one:
            return _finite(0.5 * (math.log(2 * math.pi * v2) + (v1 + (mu1 - mu2) ** 2) / v2), m)
        v_h = v2 + (a - 1) * v1
        if v_h <= 0:
            return _diverged(alpha, m)
        value = 0.5 * (
            math.log(2 * math.pi * v2)
            + math.log(v2 / v_h) / (1.0 - a)
            + (mu1 - mu2) ** 2 / v_h
        )
        return _finite(value, m)

    if f1.family is Family.LAPLACE_EQUAL_MEAN:
        _, s1 = f1.params
        _, s2 = f2.params
        if one:
            return _finite(math.log(2 * s2) + s1 / s2, m)
        s_h = s2 + (a - 1) * s1
        if s_h <= 0:
            return _diverged(alpha, m)
        value = math.log(2 * s2) + math.log(s2 / s_h) / (1.0 - a)
        return _finite(value, m)

    raise InvalidParameterError(f"no closed form for family {f1.family}")


def cross_entropy_multivariate_gaussian(cov1, cov2, alpha) -> CrossEntropyResult:
    """Cross-entropy of zero-mean multivariate normals.

    With S = cov1^-1 + (alpha - 1) cov2^-1,

        h_alpha = [ln det cov1 + ln det S] / (2 (alpha - 1))
                  + (1/2) ln det cov2 + (n/2) ln 2 pi,

    finite exactly when S is positive definite (always for alpha > 1).  The
    alpha -> 1 marker gives the Shannon value
    (n/2) ln 2 pi + (1/2) ln det cov2 + (1/2) tr(cov2^-1 cov1).
    """
    cov1 = as_symmetric_matrix(cov1, name="cov1")
    cov2 = as_symmetric_matrix(cov2, name="cov2")
    if cov1.shape != cov2.shape:
        raise DimensionMismatchError(
            f"covariance shapes differ: {cov1.shape} vs {cov2.shape}"
        )
    n = cov1.shape[0]
    inv1 = spd_inverse(cov1, name="cov1")
    inv2 = spd_inverse(cov2, name="cov2")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    if alpha.is_one:
        value = 0.5 * (
            n * LOG_2PI + spd_logdet(cov2, name="cov2") + float(np.trace(inv2 @ cov1))
        )
        return _finite(value, Method.CLOSED_FORM)
    a = alpha.value
    s = as_symmetric_matrix(inv1 + (a - 1.0) * inv2)
    try:
        chol = cholesky_lower(s)
    except NotPositiveDefiniteError:
        return _diverged(alpha, Method.CLOSED_FORM)
    logdet_s = 2.0 * float(np.sum(np.log(np.diag(chol))))
    value = (
        (spd_logdet(cov1, name="cov1") + logdet_s) / (2.0 * (a - 1.0))
        + 0.5 * spd_logdet(cov2, name="cov2")
        + 0.5 * n * LOG_2PI
    )
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
    bounded interval), so the integral has the closed form
    B(a', b') / B(a, b)^(alpha-1) with a' = (alpha-1)(a-1) + 1.
    """
    length = supp.length
    if length is None:
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
    m = Method.SPECIAL_CASE
    if alpha.is_one:
        # -mean of ln q over (0,1): integral ln x dx = -1 on the unit interval
        value = (qa - 1.0) + (qb - 1.0) + betaln(qa, qb)
        return _finite(value, m)
    a = alpha.value
    a_bar = (a - 1.0) * (qa - 1.0) + 1.0
    b_bar = (a - 1.0) * (qb - 1.0) + 1.0
    if a_bar <= 0 or b_bar <= 0:
        return _diverged(alpha, m)
    log_integral = betaln(a_bar, b_bar) - (a - 1.0) * betaln(qa, qb)
    value = (-math.log(length) + log_integral) / (1.0 - a)
    return _finite(value, m)


@dataclass(frozen=True)
class MgfFunction:
    """A moment generating function with its declared finiteness interval.

    ``lower``/``upper`` bound the interval where E[exp(t X)] is finite;
    closed endpoints are marked by the *_closed flags.  Evaluation outside
    the interval raises MgfDomainError.  The constructor spot-checks
    M(0) = 1.
    """

    fn: Callable[[float], float]
    lower: float = -math.inf
    upper: float = math.inf
    lower_closed: bool = False
    upper_closed: bool = False

    def __post_init__(self):
        at_zero = self.fn(0.0)
        if not math.isclose(at_zero, 1.0, rel_tol=1e-8, abs_tol=1e-8):
            raise InvalidParameterError(
                f"an MGF must satisfy M(0) = 1, got {at_zero!r}"
            )

    def contains(self, t: float) -> bool:
        below = t < self.upper or (self.upper_closed and t == self.upper)
        above = t > self.lower or (self.lower_closed and t == self.lower)
        return below and above

    def __call__(self, t: float) -> float:
        t = float(t)
        if not self.contains(t):
            raise MgfDomainError(
                f"t={t:g} is outside the MGF finiteness interval "
                f"({self.lower:g}, {self.upper:g})"
            )
        return float(self.fn(t))

    def derivative_at_zero(self) -> float:
        """First moment E[X] by finite differences at 0."""
        h = 1e-5
        if self.contains(h):
            return (self(h) - self(-h)) / (2.0 * h)
        # one-sided second-order stencil when 0 is the upper endpoint
        return (3.0 * self(0.0) - 4.0 * self(-h) + self(-2.0 * h)) / (2.0 * h)


def mgf_of(d: ExpFamilyDistribution) -> MgfFunction:
    """Moment generating function E[exp(t X)] of a family member."""
    if d.family is Family.EXPONENTIAL:
        lam, = d.params
        return MgfFunction(lambda t: lam / (lam - t), upper=lam)
    if d.family is Family.GAMMA:
        k, theta = d.params
        return MgfFunction(lambda t: (1.0 - theta * t) ** (-k), upper=1.0 / theta)
    if d.family is Family.CHI_SQUARED:
        nu, = d.params
        return MgfFunction(lambda t: (1.0 - 2.0 * t) ** (-nu / 2), upper=0.5)
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        return MgfFunction(lambda t: math.exp(mu * t + 0.5 * v * t * t))
    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, s = d.params
        return MgfFunction(
            lambda t: math.exp(mu * t) / (1.0 - s * s * t * t),
            lower=-1.0 / s,
            upper=1.0 / s,
        )
    if d.family is Family.BETA:
        a, b = d.params
        return MgfFunction(lambda t: float(hyp1f1(a, a + b, t)))
    raise InvalidParameterError(f"no scalar MGF for family {d.family}")


def mgf_of_centered_square(d: ExpFamilyDistribution, center: float) -> MgfFunction:
    """MGF of Y = (X - center)^2 for X ~ d.

    Analytic for Gaussian d; otherwise numerical quadrature with the
    finiteness interval implied by the family's tail: bounded support gives
    the whole line, exponential tails give t <= 0.
    """
    center = float(center)
    if d.family is Family.GAUSSIAN:
        mu, v = d.params
        delta2 = (mu - center) ** 2

        def fn(t):
            r = 1.0 - 2.0 * v * t
            return math.exp(delta2 * t / r) / math.sqrt(r)

        return MgfFunction(fn, upper=0.5 / v)
    if d.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        raise InvalidParameterError("centered-square MGF is for scalar families")

    def fn(t):
        return oracle.mgf_numeric(d.pdf, d.support, t, square_center=center)

    if d.family is Family.BETA:
        return MgfFunction(fn)
    return MgfFunction(fn, upper=0.0, upper_closed=True)


def cross_entropy_q_exponential(mgf_p: MgfFunction, rate: float, alpha) -> CrossEntropyResult:
    """Cross-entropy of a positive source p against an Exponential(rate).

        h_alpha = -ln rate + (1/(1-alpha)) ln M_p(rate (1-alpha)),

    valid when rate (1-alpha) is inside the MGF finiteness interval
    (MgfDomainError otherwise).  The alpha -> 1 marker uses
    -ln rate + rate E_p[X].
    """
    rate = float(rate)
    if rate <= 0:
        raise InvalidParameterError(f"exponential reference needs rate > 0, got {rate}")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    m = Method.SPECIAL_CASE
    if alpha.is_one:
        return _finite(-math.log(rate) + rate * mgf_p.derivative_at_zero(), m)
    a = alpha.value
    t = rate * (1.0 - a)
    value_m = mgf_p(t)  # raises MgfDomainError outside the interval
    if math.isinf(value_m):
        return _diverged(alpha, m)
    return _finite(-math.log(rate) + math.log(value_m) / (1.0 - a), m)


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
    is responsible for using a positive source there).
    """
    variance = float(variance)
    if variance <= 0:
        raise InvalidParameterError(f"reference variance must be positive, got {variance}")
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no differential form at the alpha -> infinity limit")
    const = 0.5 * math.log(2.0 * math.pi * variance)
    if half_normal:
        const -= math.log(2.0)
    m = Method.SPECIAL_CASE
    if alpha.is_one:
        return _finite(const + mgf_square.derivative_at_zero() / (2.0 * variance), m)
    a = alpha.value
    t = (1.0 - a) / (2.0 * variance)
    value_m = mgf_square(t)
    if math.isinf(value_m):
        return _diverged(alpha, m)
    return _finite(const + math.log(value_m) / (1.0 - a), m)
