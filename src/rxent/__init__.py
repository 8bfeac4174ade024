"""Renyi cross-entropy in closed form, with numerical oracles.

The package computes the order-alpha Renyi cross-entropy of a source
distribution against a reference distribution:

* exactly, for finite probability vectors and for pairs inside one
  exponential family (Gaussian, exponential, Laplace, Gamma, chi-squared,
  Beta, and zero-mean multivariate Gaussian);
* as an asymptotic rate, for stationary Gaussian processes (via their
  power spectra) and finite-alphabet Markov sources (via a Perron
  eigenvalue);
* numerically, through adaptive-quadrature oracles that validate every
  closed form; ``cross_entropy_numeric`` takes the two log-densities by
  keyword, and with q = p it gives the order-alpha entropy.

All values are in nats.  Divergent cases return ``inf`` (alpha < 1) or
``-inf`` (alpha > 1) instead of raising.
"""

from .alpha import AlphaOrder
from .differential import (
    CrossEntropyResult,
    Method,
    MgfFunction,
    cross_entropy_closed,
    cross_entropy_multivariate_gaussian,
    cross_entropy_natural,
    cross_entropy_p_uniform,
    cross_entropy_q_exponential,
    cross_entropy_q_gaussian,
    cross_entropy_q_uniform,
    mgf_of,
    mgf_of_centered_square,
)
from .discrete import (
    DiscreteDistribution,
    alt_cross_entropy,
    cross_entropy_alpha_inf,
    kl_divergence,
    renyi_cross_entropy,
    renyi_divergence,
    renyi_entropy,
    shannon_cross_entropy,
    shannon_entropy,
)
from .errors import (
    AlphaNearOneError,
    DegenerateRateError,
    DimensionMismatchError,
    DoubleRangeError,
    InfiniteSupportError,
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
    NonpositivePsdError,
    NotIrreducibleError,
    NotPositiveDefiniteError,
    OutOfDomainError,
    RenyiError,
    ZeroMassError,
)
from .expfam import ExpFamilyDistribution, Family, NaturalParam
from .gaussproc import StationaryGaussianSpec, rate_finite_n, rate_spectral
from .markov import (
    MarkovSource,
    cross_entropy_rate,
    finite_n_cross_entropy,
    perron_eigenvalue,
    shannon_rate_slope,
)
from .oracle import QuadratureSettings, cross_entropy_numeric
from .support import SupportKind, SupportSpec

__version__ = "0.1.0"

__all__ = [
    "AlphaOrder",
    "AlphaNearOneError",
    "CrossEntropyResult",
    "DegenerateRateError",
    "DimensionMismatchError",
    "DiscreteDistribution",
    "DoubleRangeError",
    "ExpFamilyDistribution",
    "Family",
    "InfiniteSupportError",
    "InvalidAlphaError",
    "InvalidParameterError",
    "MarkovSource",
    "Method",
    "MgfFunction",
    "NaturalParam",
    "NonConvergenceError",
    "NonpositivePsdError",
    "NotIrreducibleError",
    "NotPositiveDefiniteError",
    "OutOfDomainError",
    "QuadratureSettings",
    "RenyiError",
    "StationaryGaussianSpec",
    "SupportKind",
    "SupportSpec",
    "ZeroMassError",
    "alt_cross_entropy",
    "cross_entropy_alpha_inf",
    "cross_entropy_closed",
    "cross_entropy_multivariate_gaussian",
    "cross_entropy_natural",
    "cross_entropy_numeric",
    "cross_entropy_p_uniform",
    "cross_entropy_q_exponential",
    "cross_entropy_q_gaussian",
    "cross_entropy_q_uniform",
    "cross_entropy_rate",
    "finite_n_cross_entropy",
    "kl_divergence",
    "mgf_of",
    "mgf_of_centered_square",
    "perron_eigenvalue",
    "rate_finite_n",
    "rate_spectral",
    "renyi_cross_entropy",
    "renyi_divergence",
    "renyi_entropy",
    "shannon_cross_entropy",
    "shannon_entropy",
    "shannon_rate_slope",
]
