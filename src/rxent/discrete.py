"""Renyi entropy, divergence, and cross-entropy for finite alphabets.

Each measure is one function of t = alpha - 1, ln(sum p e^(t x)) / t for a
per-symbol x (ln q, ln p or ln(p/q)), whose t = 0 value is the Shannon
measure: near t = 0 the sum goes through log1p and expm1, far from it
through logsumexp, so orders from 1 to 1000 keep full precision.  Values
are in nats.  Conventions for zero masses follow the usual
measure-theoretic limits: terms with p(x) = 0 contribute nothing, and
q(x) = 0 on the support of p sends the cross-entropy to +inf for
alpha <= 1 and the divergence to +inf for alpha >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder
from .errors import DimensionMismatchError, InvalidParameterError
from .specfun import logsumexp

_MASS_TOLERANCE = 1e-12
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


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
        size = int(size)
        if size < 1:
            raise InvalidParameterError("need a nonempty 1-D probability vector")
        return cls(np.full(size, 1.0 / size))

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)


def _pair(p: DiscreteDistribution, q: DiscreteDistribution):
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatchError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    return p.probs, q.probs


def _log_mean_exp_slope(p: np.ndarray, x: np.ndarray, t: float) -> float:
    """ln(sum p e^(t x)) / t for masses p > 0, and its limit sum p x at t = 0.

    Below |t| = 1/2 it is log1p(sum p expm1(t x) / sum p) / t: the masses
    are only weights, so their slack (up to 1e-12) does not enter as
    ln(sum p) / t, and terms of one sign never cancel.  Where that mean is
    -1/2 or less (no cancellation left to avoid), where e^(t x) would
    overflow, and above |t| = 1/2, the log-space sum; x = -inf with t > 0
    contributes 0, so disjoint supports give -inf.
    """
    if t == 0.0:
        return float(p @ x)
    tx = t * x
    if abs(t) < 0.5 and tx.max() < _LOG_DOUBLE_MAX:
        mean = float(p @ np.expm1(tx)) / float(p.sum())
        if mean > -0.5:
            return math.log1p(mean) / t
    return logsumexp(np.log(p) + tx) / t


def shannon_entropy(p: DiscreteDistribution) -> float:
    """-sum p ln p."""
    return renyi_entropy(p, AlphaOrder.one())


def shannon_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """-sum p ln q; +inf when q vanishes on the support of p."""
    return renyi_cross_entropy(p, q, AlphaOrder.one())


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """sum p ln(p/q); +inf when q vanishes on the support of p."""
    return renyi_divergence(p, q, AlphaOrder.one())


def renyi_entropy(p: DiscreteDistribution, alpha) -> float:
    """Order-alpha entropy (1/(1-alpha)) ln sum p^alpha.

    With t = alpha - 1 this is -ln(sum p e^(t ln p)) / t, whose t = 0 value
    is the Shannon entropy; the alpha -> infinity marker gives min-entropy
    -ln max p.  Always in [0, ln alphabet_size].
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        return float(-np.log(p.probs.max()))
    pv = p.probs[p.probs > 0]
    return -_log_mean_exp_slope(pv, np.log(pv), alpha.value - 1.0)


def renyi_divergence(p: DiscreteDistribution, q: DiscreteDistribution, alpha) -> float:
    """Order-alpha divergence (1/(alpha-1)) ln sum p^alpha q^(1-alpha), that
    is ln(sum p e^(t ln(p/q))) / t, t = alpha - 1: Kullback-Leibler at t = 0."""
    pv, qv = _pair(p, q)
    alpha = AlphaOrder.coerce(alpha)
    on = pv > 0
    if alpha.is_inf:
        if np.any(qv[on] == 0):
            return math.inf
        return float(np.max(np.log(pv[on]) - np.log(qv[on])))
    t = alpha.value - 1.0
    if t >= 0 and np.any(qv[on] == 0):
        return math.inf
    # Below alpha = 1, terms with q = 0 have ln(p/q) = +inf and contribute
    # 0; when every term does (disjoint supports) the divergence is +inf.
    with np.errstate(divide="ignore"):
        return _log_mean_exp_slope(pv[on], np.log(pv[on]) - np.log(qv[on]), t)


def renyi_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution, alpha) -> float:
    """Order-alpha cross-entropy (1/(1-alpha)) ln sum p q^(alpha-1).

    With t = alpha - 1 this is -ln(sum p e^(t ln q)) / t, whose t = 0 value
    is the Shannon cross-entropy -sum p ln q; the alpha -> infinity marker
    gives -ln max of q over the support of p.  Nonnegative for probability
    vectors, and non-increasing in alpha.
    """
    pv, qv = _pair(p, q)
    alpha = AlphaOrder.coerce(alpha)
    on = pv > 0
    if alpha.is_inf:
        top = qv[on].max()
        return math.inf if top == 0 else float(-np.log(top))
    t = alpha.value - 1.0
    if t <= 0 and np.any(qv[on] == 0):
        return math.inf
    # Above alpha = 1, terms with q = 0 contribute 0; when every term does
    # (the whole mass of p sits where q = 0) the cross-entropy is +inf.
    with np.errstate(divide="ignore"):
        return -_log_mean_exp_slope(pv[on], np.log(qv[on]), t)


def alt_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution, alpha) -> float:
    """Divergence-plus-entropy variant D_alpha(p || q) + H_alpha(p)."""
    return renyi_divergence(p, q, alpha) + renyi_entropy(p, alpha)


def cross_entropy_alpha_inf(q: DiscreteDistribution) -> float:
    """-ln max q: the alpha -> infinity limit for any full-support source."""
    return float(-np.log(q.probs.max()))
