"""Renyi entropy, divergence, and cross-entropy for finite alphabets.

All sums are evaluated in log space (logsumexp) so that extreme orders such
as alpha = 1000 keep full precision.  Values are in nats.  Conventions for
zero masses follow the usual measure-theoretic limits: terms with p(x) = 0
contribute nothing, and q(x) = 0 on the support of p sends divergence and
cross-entropy to +inf whenever the exponent alpha - 1 is negative (and the
alpha -> 1 and alpha -> infinity limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder
from .errors import DimensionMismatchError, InvalidParameterError
from .specfun import logsumexp

_MASS_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over a finite alphabet.

    Masses must be nonnegative and sum to 1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidParameterError("need a nonempty 1-D probability vector")
        if not np.all(np.isfinite(p)):
            raise InvalidParameterError("probabilities must be finite")
        if np.any(p < 0):
            raise InvalidParameterError("probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _MASS_TOLERANCE:
            raise InvalidParameterError(f"probabilities sum to {total!r}, not 1")
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        return cls(np.full(int(size), 1.0 / int(size)))

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)


def _pair(p: DiscreteDistribution, q: DiscreteDistribution):
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatchError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return p.probs, q.probs


def shannon_entropy(p: DiscreteDistribution) -> float:
    """-sum p ln p."""
    pv = p.probs[p.probs > 0]
    return float(-(pv * np.log(pv)).sum())


def shannon_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """-sum p ln q; +inf when q vanishes on the support of p."""
    pv, qv = _pair(p, q)
    on = pv > 0
    if np.any(qv[on] == 0):
        return math.inf
    return float(-(pv[on] * np.log(qv[on])).sum())


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """sum p ln(p/q); +inf when q vanishes on the support of p."""
    pv, qv = _pair(p, q)
    on = pv > 0
    if np.any(qv[on] == 0):
        return math.inf
    return float((pv[on] * (np.log(pv[on]) - np.log(qv[on]))).sum())


def renyi_entropy(p: DiscreteDistribution, alpha) -> float:
    """Order-alpha entropy (1/(1-alpha)) ln sum p^alpha.

    The alpha -> 1 marker gives Shannon entropy, the alpha -> infinity
    marker gives min-entropy -ln max p.  Always in [0, ln alphabet_size].
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_one:
        return shannon_entropy(p)
    if alpha.is_inf:
        return float(-np.log(p.probs.max()))
    a = alpha.value
    logp = np.log(p.probs[p.probs > 0])
    return logsumexp(a * logp) / (1.0 - a)


def renyi_divergence(p: DiscreteDistribution, q: DiscreteDistribution, alpha) -> float:
    """Order-alpha divergence (1/(alpha-1)) ln sum p^alpha q^(1-alpha)."""
    pv, qv = _pair(p, q)
    alpha = AlphaOrder.coerce(alpha)
    on = pv > 0
    if alpha.is_one:
        return kl_divergence(p, q)
    if alpha.is_inf:
        if np.any(qv[on] == 0):
            return math.inf
        return float(np.max(np.log(pv[on]) - np.log(qv[on])))
    a = alpha.value
    if a > 1 and np.any(qv[on] == 0):
        return math.inf
    both = on & (qv > 0)
    # Terms with q = 0 contribute 0 when alpha < 1; an empty sum gives
    # logsumexp = -inf and thus divergence +inf (disjoint supports).
    terms = a * np.log(pv[both]) + (1.0 - a) * np.log(qv[both])
    return logsumexp(terms) / (a - 1.0)


def renyi_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution, alpha) -> float:
    """Order-alpha cross-entropy (1/(1-alpha)) ln sum p q^(alpha-1).

    The alpha -> 1 marker gives the Shannon cross-entropy -sum p ln q; the
    alpha -> infinity marker gives -ln max of q over the support of p.
    Nonnegative for probability vectors, and non-increasing in alpha.
    """
    pv, qv = _pair(p, q)
    alpha = AlphaOrder.coerce(alpha)
    on = pv > 0
    if alpha.is_one:
        return shannon_cross_entropy(p, q)
    if alpha.is_inf:
        top = qv[on].max()
        return math.inf if top == 0 else float(-np.log(top))
    a = alpha.value
    if a < 1 and np.any(qv[on] == 0):
        return math.inf
    both = on & (qv > 0)
    # When alpha > 1, terms with q = 0 vanish; an empty sum means the whole
    # mass of p sits where q = 0 and the cross-entropy is +inf.
    terms = np.log(pv[both]) + (a - 1.0) * np.log(qv[both])
    return logsumexp(terms) / (1.0 - a)


def alt_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution, alpha) -> float:
    """Divergence-plus-entropy variant D_alpha(p || q) + H_alpha(p)."""
    return renyi_divergence(p, q, alpha) + renyi_entropy(p, alpha)


def cross_entropy_alpha_inf(q: DiscreteDistribution) -> float:
    """-ln max q: the alpha -> infinity limit for any full-support source."""
    return float(-np.log(q.probs.max()))
