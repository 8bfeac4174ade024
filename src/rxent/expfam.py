"""Exponential-family representation of six scalar families plus the
zero-mean multivariate Gaussian.

Every density is written as

    f(x) = b(x) * exp( eta . T(x) + A(eta) )

where b is the base measure, T the sufficient statistic, eta the natural
parameter, and A(eta) = -ln integral b exp(eta . T) the log-normalizer.
The conventions fixed here (and relied on throughout):

    family            b(x)              T(x)                 eta            natural domain
    ----------------  ----------------  -------------------  -------------  ----------------------
    Beta(a, c)        1                 (ln x, ln(1-x))      (a-1, c-1)     eta1 > -1, eta2 > -1
    ChiSquared(nu)    exp(-x/2)         ln x                 nu/2 - 1       eta > -1
    Exponential(lam)  1                 x                    -lam           eta < 0
    Gamma(k, theta)   1                 (ln x, x)            (k-1, -1/th)   eta1 > -1, eta2 < 0
    Gaussian(mu, v)   (2 pi)^(-1/2)     (x, x^2)             (mu/v,         eta2 < 0
                                                              -1/(2v))
    Laplace(mu, s)    1                 |x - mu|             -1/s           eta < 0
    MV Gaussian(S)    (2 pi)^(-n/2)     x x^T                -(1/2) S^-1    -2 eta pos. definite

Each natural domain is exactly the set where the normalizing integral
converges.  Every base measure is constant or, for chi-squared, decays
like exp(-x/2) whatever its power, so the combined parameter
eta1 + (alpha - 1) eta2 lies in the domain exactly when the cross-entropy
integral exists: an out-of-domain combined parameter certifies
divergence.  The Laplace location enters T itself, so two
Laplace members belong to the same family (share T) only when their
locations agree.

A ``NaturalParam`` is plain data: a tuple of floats for a scalar member
and the n x n matrix for the multivariate Gaussian, so the combined
parameter, A and the divided differences of the scalar families run on
Python floats and never touch numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .alpha import AlphaOrder
from .errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidParameterError,
    OutOfDomainError,
)
from .linalg import (
    as_symmetric_matrix,
    cholesky_lower,
    relative_eigenvalues,
    spd_inverse,
    spd_logdet,
)
from .specfun import betaln, betaln_slope, gammaln, gammaln_slope, log1p_slope, log1p_slope_sum
from .support import ALL_REALS, POSITIVE_REALS, UNIT_INTERVAL, SupportSpec

LOG_2PI = math.log(2.0 * math.pi)


class Family(Enum):
    BETA = "beta"
    CHI_SQUARED = "chi_squared"
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    GAUSSIAN = "gaussian"
    LAPLACE_EQUAL_MEAN = "laplace"
    MV_GAUSSIAN_ZERO_MEAN = "mv_gaussian"


_SCALAR_FAMILIES = frozenset(
    {Family.BETA, Family.CHI_SQUARED, Family.EXPONENTIAL, Family.GAMMA,
     Family.GAUSSIAN, Family.LAPLACE_EQUAL_MEAN}
)


def _require_finite(name: str, *values: float):
    for v in values:
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name}: parameters must be finite, got {v}")


@dataclass(frozen=True, eq=False)
class ExpFamilyDistribution:
    """One member of a supported family, in classical parameters.

    Use the family classmethods; the raw constructor does not validate.
    ``params`` holds the classical parameters in the documented order;
    ``cov`` is only set for the multivariate Gaussian.
    """

    family: Family
    params: tuple[float, ...] = ()
    cov: np.ndarray | None = None

    @classmethod
    def beta(cls, a: float, b: float) -> "ExpFamilyDistribution":
        """Beta(a, b) on (0, 1): x^(a-1) (1-x)^(b-1) / B(a, b)."""
        a, b = float(a), float(b)
        _require_finite("beta", a, b)
        if a <= 0 or b <= 0:
            raise InvalidParameterError(f"beta needs a > 0 and b > 0, got ({a}, {b})")
        return cls(Family.BETA, (a, b))

    @classmethod
    def chi_squared(cls, nu: float) -> "ExpFamilyDistribution":
        """Chi-squared with nu > 0 degrees of freedom (real nu accepted)."""
        nu = float(nu)
        _require_finite("chi_squared", nu)
        if nu <= 0:
            raise InvalidParameterError(f"chi_squared needs nu > 0, got {nu}")
        return cls(Family.CHI_SQUARED, (nu,))

    @classmethod
    def exponential(cls, rate: float) -> "ExpFamilyDistribution":
        """Exponential with rate lambda > 0: lambda exp(-lambda x) on x > 0."""
        rate = float(rate)
        _require_finite("exponential", rate)
        if rate <= 0:
            raise InvalidParameterError(f"exponential needs rate > 0, got {rate}")
        return cls(Family.EXPONENTIAL, (rate,))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "ExpFamilyDistribution":
        """Gamma(k, theta): x^(k-1) exp(-x/theta) / (Gamma(k) theta^k)."""
        shape, scale = float(shape), float(scale)
        _require_finite("gamma", shape, scale)
        if shape <= 0 or scale <= 0:
            raise InvalidParameterError(
                f"gamma needs shape > 0 and scale > 0, got ({shape}, {scale})"
            )
        return cls(Family.GAMMA, (shape, scale))

    @classmethod
    def gaussian(cls, mean: float, variance: float) -> "ExpFamilyDistribution":
        """Normal with the given mean and variance."""
        mean, variance = float(mean), float(variance)
        _require_finite("gaussian", mean, variance)
        if variance <= 0:
            raise InvalidParameterError(f"gaussian needs variance > 0, got {variance}")
        return cls(Family.GAUSSIAN, (mean, variance))

    @classmethod
    def laplace(cls, mean: float, scale: float) -> "ExpFamilyDistribution":
        """Laplace with location mu and scale s: exp(-|x-mu|/s) / (2s)."""
        mean, scale = float(mean), float(scale)
        _require_finite("laplace", mean, scale)
        if scale <= 0:
            raise InvalidParameterError(f"laplace needs scale > 0, got {scale}")
        return cls(Family.LAPLACE_EQUAL_MEAN, (mean, scale))

    @classmethod
    def mv_gaussian(cls, cov, name: str = "covariance") -> "ExpFamilyDistribution":
        """Zero-mean multivariate normal with SPD covariance, ``name`` in errors."""
        cov = as_symmetric_matrix(cov, name=name)
        cholesky_lower(cov, name=name)  # SPD check
        cov.setflags(write=False)
        return cls(Family.MV_GAUSSIAN_ZERO_MEAN, (), cov)

    @property
    def support(self) -> SupportSpec:
        if self.family is Family.BETA:
            return UNIT_INTERVAL
        if self.family in (Family.CHI_SQUARED, Family.EXPONENTIAL, Family.GAMMA):
            return POSITIVE_REALS
        if self.family in (Family.GAUSSIAN, Family.LAPLACE_EQUAL_MEAN):
            return ALL_REALS
        return SupportSpec.real_vector(self.cov.shape[0])

    @property
    def dim(self) -> int:
        return 1 if self.family in _SCALAR_FAMILIES else self.cov.shape[0]

    def pdf(self, x) -> float:
        """Density at x (classical closed form; 0 outside the support)."""
        return math.exp(self.logpdf(x))

    @cached_property
    def logpdf(self) -> Callable[[float], float]:
        """Log-density x -> ln f(x), -inf outside the support, which unlike pdf
        never underflows in the tails.  Built on first use and kept, with the
        member's constants (ln B(a, b), ln Gamma, k ln theta, ln 2s, 2 var, the
        inverse covariance and its log-determinant) folded in."""
        return _log_density(self)

    def __getstate__(self):  # pickle without the closure; it is rebuilt on first use
        return {k: v for k, v in vars(self).items() if k != "logpdf"}

    def __repr__(self) -> str:
        if self.family is Family.MV_GAUSSIAN_ZERO_MEAN:
            return f"ExpFamilyDistribution.mv_gaussian(dim={self.dim})"
        args = ", ".join(f"{p:g}" for p in self.params)
        return f"ExpFamilyDistribution({self.family.value}, {args})"


@dataclass(frozen=True, eq=False)
class NaturalParam:
    """Natural parameter of one family member, as plain data.

    ``components`` is a tuple of floats for the scalar families, in the
    order of the module table, and the n x n matrix -(1/2) S^-1 itself for
    the multivariate Gaussian.  ``anchor`` carries the Laplace location,
    which lives inside the sufficient statistic |x - anchor|.
    """

    family: Family
    components: tuple[float, ...] | np.ndarray
    anchor: float | None = None


def _log_density(d: ExpFamilyDistribution) -> Callable[[float], float]:
    """ln f of d as a closure over its constants, in each formula's order."""
    p = d.params
    if d.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        n, inverse, logdet = d.dim, spd_inverse(d.cov), spd_logdet(d.cov)

        def mv_gaussian(x):
            xv = np.asarray(x, dtype=float)
            if xv.shape != (n,):
                raise DimensionMismatchError(f"point must have shape ({n},), got {xv.shape}")
            return -0.5 * (n * LOG_2PI + logdet + float(xv @ inverse @ xv))

        return mv_gaussian
    if d.family is Family.BETA:
        a1, b1, log_beta = p[0] - 1, p[1] - 1, betaln(*p)
        return lambda x: (a1 * math.log(x) + b1 * math.log1p(-x) - log_beta
                          if 0.0 < float(x) < 1.0 else -math.inf)
    if d.family is Family.EXPONENTIAL:
        lam, log_lam = p[0], math.log(p[0])
        return lambda x: -math.inf if x < 0.0 else log_lam - lam * float(x)
    if d.family in (Family.CHI_SQUARED, Family.GAMMA):  # chi-squared: k = nu/2, theta = 2
        k, theta = p if d.family is Family.GAMMA else (p[0] / 2, 2)
        # ln(Gamma(k) theta^k) in two terms, subtracted in each formula's order
        first, second = ((gammaln(k), k * math.log(theta)) if d.family is Family.GAMMA
                         else (k * math.log(2), gammaln(k)))
        k1, at_zero = k - 1, -math.log(theta) if k == 1.0 else -math.inf

        def shape_scale(x):
            x = float(x)
            if x <= 0.0:
                return at_zero if x == 0.0 else -math.inf
            return k1 * math.log(x) - x / theta - first - second

        return shape_scale
    if d.family is Family.GAUSSIAN:
        mu, two_var, half_log = p[0], 2 * p[1], 0.5 * math.log(2 * math.pi * p[1])

        def gaussian(x):
            z = float(x) - mu  # z * z would overflow past |z| = 1.3e154 for a wide q
            return -(z / two_var) * z - half_log

        return gaussian
    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, s, log_2s = p[0], p[1], math.log(2 * p[1])
        return lambda x: -abs(float(x) - mu) / s - log_2s
    raise InvalidParameterError(f"unknown family {d.family}")


def to_natural(d: ExpFamilyDistribution) -> NaturalParam:
    """Natural parameter of d under this module's conventions."""
    p = d.params
    if d.family is Family.BETA:
        return NaturalParam(d.family, (p[0] - 1, p[1] - 1))
    if d.family is Family.CHI_SQUARED:
        return NaturalParam(d.family, (p[0] / 2 - 1,))
    if d.family is Family.EXPONENTIAL:
        return NaturalParam(d.family, (-p[0],))
    if d.family is Family.GAMMA:
        return NaturalParam(d.family, (p[0] - 1, -1.0 / p[1]))
    if d.family is Family.GAUSSIAN:
        mu, var = p
        return NaturalParam(d.family, (mu / var, -0.5 / var))
    if d.family is Family.LAPLACE_EQUAL_MEAN:
        mu, s = p
        return NaturalParam(d.family, (-1.0 / s,), anchor=mu)
    if d.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        return NaturalParam(d.family, -0.5 * spd_inverse(d.cov))
    raise InvalidParameterError(f"unknown family {d.family}")


def natural_in_domain(eta: NaturalParam) -> bool:
    """Whether eta lies in the family's natural domain (integral converges)."""
    c = eta.components
    if eta.family is Family.BETA:
        return c[0] > -1 and c[1] > -1
    if eta.family is Family.CHI_SQUARED:
        return c[0] > -1
    if eta.family in (Family.EXPONENTIAL, Family.LAPLACE_EQUAL_MEAN):
        return c[0] < 0
    if eta.family is Family.GAMMA:
        return c[0] > -1 and c[1] < 0
    if eta.family is Family.GAUSSIAN:
        return c[1] < 0
    if eta.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        m = -2.0 * eta.components
        try:
            cholesky_lower(as_symmetric_matrix(m))
            return True
        except (InvalidParameterError, ValueError):
            return False
    raise InvalidParameterError(f"unknown family {eta.family}")


def _require_domain(eta: NaturalParam):
    if not natural_in_domain(eta):
        raise OutOfDomainError(
            f"{eta.family.value} natural parameter {eta.components} is outside "
            "the natural domain (normalizing integral diverges)"
        )


def log_partition(eta: NaturalParam) -> float:
    """Log-normalizer A(eta) = -ln integral b(x) exp(eta . T(x)) dx.

    With this sign, f = b exp(eta . T + A).  Raises OutOfDomainError when
    eta is outside the natural domain.
    """
    _require_domain(eta)
    c = eta.components
    if eta.family is Family.BETA:
        return -betaln(c[0] + 1, c[1] + 1)
    if eta.family is Family.CHI_SQUARED:
        h = c[0] + 1  # = nu / 2
        return -h * math.log(2) - gammaln(h)
    if eta.family is Family.EXPONENTIAL:
        return math.log(-c[0])
    if eta.family is Family.GAMMA:
        k = c[0] + 1
        return -gammaln(k) + k * math.log(-c[1])
    if eta.family is Family.GAUSSIAN:
        return 0.5 * math.log(-2.0 * c[1]) + c[0] * c[0] / (4.0 * c[1])
    if eta.family is Family.LAPLACE_EQUAL_MEAN:
        return math.log(-c[0] / 2.0)
    if eta.family is Family.MV_GAUSSIAN_ZERO_MEAN:
        return 0.5 * spd_logdet(as_symmetric_matrix(-2.0 * eta.components))
    raise InvalidParameterError(f"unknown family {eta.family}")


def combine_natural(eta1: NaturalParam, eta2: NaturalParam, alpha) -> NaturalParam:
    """The combined parameter eta1 + (alpha - 1) eta2.

    This is the natural parameter of the tilted density proportional to
    f1 f2^(alpha-1) (up to the base-measure power); at alpha = 1 it is
    eta1.  Raises OutOfDomainError when the combination leaves the natural
    domain, which certifies that the cross-entropy integral diverges.
    """
    if eta1.family is not eta2.family:
        raise InvalidParameterError(
            f"cannot combine parameters of {eta1.family.value} and {eta2.family.value}"
        )
    c1, c2 = eta1.components, eta2.components
    if len(c1) != len(c2):  # components, or rows of the square matrices
        raise DimensionMismatchError(
            f"natural parameters have sizes {len(c1)} and {len(c2)}")
    if eta1.family is Family.LAPLACE_EQUAL_MEAN and eta1.anchor != eta2.anchor:
        raise InvalidParameterError(
            "Laplace members share a sufficient statistic only with equal "
            f"locations, got {eta1.anchor} and {eta2.anchor}"
        )
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("cannot combine natural parameters at alpha = infinity")
    t = alpha.value - 1.0
    combined = NaturalParam(
        eta1.family,
        c1 + t * c2 if eta1.family is Family.MV_GAUSSIAN_ZERO_MEAN
        else tuple([a + t * b for a, b in zip(c1, c2)]),
        eta1.anchor,
    )
    if not natural_in_domain(combined):
        raise OutOfDomainError(
            f"combined {eta1.family.value} parameter {combined.components} leaves "
            f"the natural domain at alpha={alpha.value:g} (integral diverges)"
        )
    return combined


def constant_log_base(family: Family, dim: int = 1) -> float | None:
    """ln b when the base measure is constant on the support, else None."""
    if family in (Family.BETA, Family.EXPONENTIAL, Family.GAMMA, Family.LAPLACE_EQUAL_MEAN):
        return 0.0
    if family is Family.GAUSSIAN:
        return -0.5 * LOG_2PI
    if family is Family.MV_GAUSSIAN_ZERO_MEAN:
        return -0.5 * dim * LOG_2PI
    return None  # chi-squared


def _inner_log1p_slope(t: float, u: float) -> float:
    """log1p_slope, or OutOfDomainError where 1 + t u rounds to 0 or below."""
    if t * u <= -1.0:
        raise OutOfDomainError("the combined parameter rounds onto the domain boundary")
    return log1p_slope(t, u)


def log_partition_slope(eta1: NaturalParam, eta2: NaturalParam, t: float) -> float:
    """Divided difference [A(eta1 + t eta2) - A(eta1)] / t of the log-normalizer.

    Written per family with log1p and ln Gamma divided differences, so it
    does not cancel as t -> 0; at t = 0 it is the directional derivative
    grad A(eta1) . eta2 = -E_1[T] . eta2.  The caller checks that
    eta1 + t eta2 lies in the natural domain (``combine_natural``).  For
    the Gaussian see ``gaussian_log_partition_gap``, which subtracts A(eta2).
    """
    c, d = eta1.components, eta2.components
    if eta1.family is Family.BETA:
        return -betaln_slope(c[0] + 1, c[1] + 1, d[0], d[1], t)
    if eta1.family is Family.CHI_SQUARED:
        return -d[0] * math.log(2) - gammaln_slope(c[0] + 1, d[0], t)
    if eta1.family in (Family.EXPONENTIAL, Family.LAPLACE_EQUAL_MEAN):
        return _inner_log1p_slope(t, d[0] / c[0])
    if eta1.family is Family.GAMMA:
        k = c[0] + 1
        return (-gammaln_slope(k, d[0], t) + d[0] * math.log(-c[1])
                + (k + t * d[0]) * _inner_log1p_slope(t, d[1] / c[1]))
    if eta1.family is Family.MV_GAUSSIAN_ZERO_MEAN:  # A = (1/2) ln det(-2 eta)
        return 0.5 * log1p_slope_sum([t], relative_eigenvalues(-d, -c))[0]
    raise InvalidParameterError(f"unknown family {eta1.family}")


def gaussian_log_partition_gap(eta1: NaturalParam, eta2: NaturalParam, t: float) -> float:
    """[A(eta1 + t eta2) - A(eta1)] / t - A(eta2) for Gaussian parameters.

    A = (1/2) ln(-2 eta_2) + eta_1^2 / (4 eta_2).  With eta1 = (x, u),
    eta2 = (y, v) and r = v / u, the quadratic parts of the slope and of
    A(eta2) merge into -(u y - v x)^2 / (4 u v (u + t v)), formed as
    -(q / 4 v) (q / (1 + t r)) with q = y - r x: apart they cancel at large
    t, and their squares leave the double range before the value does.
    """
    (x, u), (y, v) = eta1.components, eta2.components
    r = v / u
    q = y - r * x
    return (0.5 * (_inner_log1p_slope(t, r) - math.log(-2.0 * v))
            - (q / (4.0 * v)) * (q / (1.0 + t * r)))


def log_base_expectation(eta: NaturalParam, alpha) -> float:
    """ln E[ b(X)^t ] / t with t = alpha - 1, under the member eta.

    For the constant-base families this is ln b.  For chi-squared,
    b(X)^t = exp(-t X / 2), and the chi-squared MGF at -t / 2 gives
    (1 + t)^(-nu/2) with nu / 2 = eta + 1, so the value is
    -(nu/2) log1p(t) / t.  At alpha = 1 it is E[ln b(X)].
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no base expectation at alpha = infinity")
    _require_domain(eta)
    const = constant_log_base(eta.family, len(eta.components))  # dim: the matrix's rows
    if const is not None:
        return const
    return -(eta.components[0] + 1.0) * log1p_slope(alpha.value - 1.0, 1.0)
