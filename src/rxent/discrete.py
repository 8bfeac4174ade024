"""Renyi entropy, divergence, and cross-entropy for finite alphabets.

Each measure is one function of t = alpha - 1, ln(sum p e^(t x)) / t for a
per-symbol x (ln q, ln p or ln(p/q)), whose t = 0 value is the Shannon
measure: near t = 0 the sum goes through log1p and expm1, far from it
through logsumexp, so orders from 1 to 1000 keep full precision.  Each
measure takes one order or a sequence of them: the support, the logarithms
and the zero-mass checks are taken once, and the orders of each branch go
through one numpy pass (``_fill``), each order's sums its own, so a grid
gives the per-order values bit for bit.  Values are in nats.  Conventions
for zero masses follow the usual measure-theoretic limits: terms with
p(x) = 0 contribute nothing, and q(x) = 0 on the support of p sends the
cross-entropy to +inf for alpha <= 1 and the divergence to +inf for
alpha >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder, evaluate_orders
from .errors import DimensionMismatchError, InvalidParameterError
from .specfun import logsumexp

_MASS_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability vector over a finite alphabet.

    Masses must be nonnegative and sum to 1 within 1e-12.  Construction
    checks them on its own read-only copy with one min and one sum: a NaN
    or -inf mass fails the sign test and a +inf mass the sum test, so only
    a failed test looks at each mass to say which came first.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidParameterError("need a nonempty 1-D probability vector")
        if not p.min() >= 0:  # a NaN or a negative mass
            _refuse(p, "probabilities must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > _MASS_TOLERANCE:
            _refuse(p, f"probabilities sum to {total!r}, not 1")
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


def _refuse(values: np.ndarray, reason: str, what: str = "probabilities"):
    """Raise InvalidParameterError with ``reason``, or, where a value is not
    finite, the finiteness check that comes before it."""
    if not np.isfinite(values).all():
        reason = f"{what} must be finite"
    raise InvalidParameterError(reason)


def _support(p: DiscreteDistribution, q: DiscreteDistribution):
    """The masses of p and q on the support of p."""
    if p.alphabet_size != q.alphabet_size:
        raise DimensionMismatchError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
        )
    on = p.probs > 0
    return p.probs[on], q.probs[on]


def _fill(values: list, t: list, p: np.ndarray, terms, sign: float) -> list:
    """``values`` with each None, at the order t[i], replaced by sign times
    ln(sum p e^(t x)) / t for masses p > 0 and x = ``terms()``, or its limit
    sum p x at t = 0, with one numpy pass per branch over the orders it takes;
    ``terms`` runs only where an order needs it, so the alpha -> infinity
    marker alone takes no logarithm.

    Below |t| = 1/2 it is log1p(sum p expm1(t x) / sum p) / t: the masses
    are only weights, so their slack (up to 1e-12) does not enter as
    ln(sum p) / t, and terms of one sign never cancel.  There |t x| < 373,
    as |x| <= 745 for double masses, so e^(t x) stays in range.  Where that
    mean is -1/2 or less (no cancellation left to avoid), and from
    |t| = 1/2 on, the log-space sum; x = -inf with t > 0 contributes 0, so
    disjoint supports give -inf.  Each order's value is its own: a sum per
    order (``np.vecdot``, a dot product per row), never one across orders.
    """
    if None not in values:
        return values
    x = terms()
    near, far = [], []
    for i, (value, u) in enumerate(zip(values, t)):
        if value is None:
            if u == 0.0:
                values[i] = sign * float(p @ x)
            else:
                (near if abs(u) < 0.5 else far).append(i)
    if near:
        u = np.array([t[i] for i in near])
        means = np.vecdot(np.expm1(u[:, None] * x), p) / float(p.sum())
        for i, mean in zip(near, means.tolist()):
            if mean > -0.5:
                values[i] = sign * (math.log1p(mean) / t[i])
            else:
                far.append(i)
    if far:
        u = np.array([t[i] for i in far])
        for i, total in zip(far, logsumexp(np.log(p) + u[:, None] * x)):
            values[i] = sign * (total / t[i])
    return values


def shannon_entropy(p: DiscreteDistribution) -> float:
    """-sum p ln p."""
    return renyi_entropy(p, AlphaOrder.one())


def shannon_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """-sum p ln q; +inf when q vanishes on the support of p."""
    return renyi_cross_entropy(p, q, AlphaOrder.one())


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """sum p ln(p/q); +inf when q vanishes on the support of p."""
    return renyi_divergence(p, q, AlphaOrder.one())


def renyi_entropy(p: DiscreteDistribution, alpha):
    """Order-alpha entropy (1/(1-alpha)) ln sum p^alpha.

    With t = alpha - 1 this is -ln(sum p e^(t ln p)) / t, whose t = 0 value
    is the Shannon entropy; the alpha -> infinity marker gives min-entropy
    -ln max p.  Always in [0, ln alphabet_size].  A sequence of orders gives
    the list of values.
    """
    return evaluate_orders(_entropies, alpha, p)


def _entropies(p: DiscreteDistribution, orders: list) -> list:
    pv = p.probs[p.probs > 0]
    t = [alpha.value - 1.0 for alpha in orders]
    values = [float(-np.log(p.probs.max())) if alpha.is_inf else None for alpha in orders]
    return _fill(values, t, pv, lambda: np.log(pv), -1.0)


def renyi_divergence(p: DiscreteDistribution, q: DiscreteDistribution, alpha):
    """Order-alpha divergence (1/(alpha-1)) ln sum p^alpha q^(1-alpha), that
    is ln(sum p e^(t ln(p/q))) / t, t = alpha - 1: Kullback-Leibler at t = 0.
    A sequence of orders gives the list of values."""
    return evaluate_orders(_divergences, alpha, p, q)


def _divergences(p: DiscreteDistribution, q: DiscreteDistribution, orders: list) -> list:
    pv, qv = _support(p, q)
    t = [alpha.value - 1.0 for alpha in orders]
    missing = np.count_nonzero(qv) < qv.size  # q vanishes somewhere on the support of p
    # Below alpha = 1, terms with q = 0 have ln(p/q) = +inf and contribute
    # 0; when every term does (disjoint supports) the divergence is +inf.
    x = np.log(pv) - _log(qv, missing)
    values = [(math.inf if missing else float(x.max())) if alpha.is_inf
              else math.inf if missing and u >= 0 else None for alpha, u in zip(orders, t)]
    return _fill(values, t, pv, lambda: x, 1.0)


def renyi_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution, alpha):
    """Order-alpha cross-entropy (1/(1-alpha)) ln sum p q^(alpha-1).

    With t = alpha - 1 this is -ln(sum p e^(t ln q)) / t, whose t = 0 value
    is the Shannon cross-entropy -sum p ln q; the alpha -> infinity marker
    gives -ln max of q over the support of p.  Nonnegative for probability
    vectors, and non-increasing in alpha.  A sequence of orders gives the
    list of values.
    """
    return evaluate_orders(_cross_entropies, alpha, p, q)


def _cross_entropies(p: DiscreteDistribution, q: DiscreteDistribution, orders: list) -> list:
    pv, qv = _support(p, q)
    t = [alpha.value - 1.0 for alpha in orders]
    missing = np.count_nonzero(qv) < qv.size  # q vanishes somewhere on the support of p
    values = [_top_cost(qv) if alpha.is_inf else math.inf if missing and u <= 0 else None
              for alpha, u in zip(orders, t)]
    # Above alpha = 1, terms with q = 0 contribute 0; when every term does
    # (the whole mass of p sits where q = 0) the cross-entropy is +inf.
    return _fill(values, t, pv, lambda: _log(qv, missing), -1.0)


def _log(v: np.ndarray, zeros: bool) -> np.ndarray:
    """ln v, -inf where v = 0 (``zeros`` says whether any is), without a
    divide-by-zero warning."""
    if not zeros:  # the warning filter costs more than the log of a short vector
        return np.log(v)
    with np.errstate(divide="ignore"):
        return np.log(v)


def _top_cost(qv: np.ndarray) -> float:
    """-ln max q, +inf where q vanishes on the whole support of p."""
    top = qv.max()
    return math.inf if top == 0 else float(-np.log(top))


def alt_cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution, alpha):
    """Divergence-plus-entropy variant D_alpha(p || q) + H_alpha(p).  A
    sequence of orders gives the list of values."""
    return evaluate_orders(_alt_cross_entropies, alpha, p, q)


def _alt_cross_entropies(p: DiscreteDistribution, q: DiscreteDistribution, orders: list) -> list:
    return [d + h for d, h in zip(_divergences(p, q, orders), _entropies(p, orders))]


def cross_entropy_alpha_inf(q: DiscreteDistribution) -> float:
    """-ln max q: the alpha -> infinity limit for any full-support source."""
    return float(-np.log(q.probs.max()))
