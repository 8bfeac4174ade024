"""Renyi cross-entropy rates for finite-alphabet Markov sources.

For sources P and Q on K states with start distributions p and q, the
order-alpha cross-entropy of the length-n blocks is

    (1/(n (1 - alpha))) ln ( s R^(n-1) 1 ),

where R_ij = P(j|i) Q(j|i)^(alpha-1) and s_i = p(i) q(i)^(alpha-1).  As
n -> infinity the rate is ln(lambda) / (1 - alpha) with lambda the largest
eigenvalue that the start weights can reach: for irreducible R it is the
Perron eigenvalue; in general it is the maximum of the Perron eigenvalues
of the self-communicating classes reachable from the support of s (with
strictly positive start weights, the spectral radius of R).

With t = alpha - 1, a closed class (one the source never leaves) has
lambda = 1 + t u D 1 exactly, where D = P o expm1(t ln Q) / t and u is the
left Perron vector of its block, scaled to sum 1 (P 1 = 1 there).  Its rate
-log1p(t u D 1) / t runs through t = 0, where u is the stationary law and
the rate is the Shannon rate -u (P o ln Q) 1; at t = 0 the chain's rate
weights the reachable closed classes by their absorption probabilities.
The block-entropy slope n H_n - (n-1) H_{n-1} is kept as its referee.

Class eigenvalues come from LAPACK (``numpy.linalg.eig``).  The classes
come from the boolean reachability closure of I + pattern, taken by
repeated squaring in float matrix products.  Matrix powers (the finite-n
blocks and the slope's state occupation) are taken by binary powering with
scaling, O(K^3 log n) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha import AlphaOrder
from .discrete import DiscreteDistribution
from .errors import (
    DegenerateRateError,
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
    NotIrreducibleError,
    ZeroMassError,
)
from .specfun import log1p_slope

_ROW_SUM_TOLERANCE = 1e-12
_RESIDUAL_FACTOR = 1e-12
_SHANNON_SLOPE_N = 4096


@dataclass(frozen=True, eq=False)
class MarkovSource:
    """Row-stochastic transition matrix plus a start distribution."""

    transition: np.ndarray
    initial: DiscreteDistribution

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidParameterError(f"transition matrix must be square, got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise InvalidParameterError("transition probabilities must be finite")
        if np.any(t < 0):
            raise InvalidParameterError("transition probabilities must be nonnegative")
        rows = t.sum(axis=1)
        bad = np.abs(rows - 1.0) > _ROW_SUM_TOLERANCE
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvalidParameterError(f"row {i} sums to {rows[i]!r}, not 1")
        if self.initial.alphabet_size != t.shape[0]:
            raise DimensionMismatchError(
                f"start distribution has {self.initial.alphabet_size} states, "
                f"matrix has {t.shape[0]}"
            )
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)

    @classmethod
    def of(cls, transition, initial=None) -> "MarkovSource":
        t = np.asarray(transition, dtype=float)
        if initial is None:
            initial = DiscreteDistribution.uniform(t.shape[0])
        elif not isinstance(initial, DiscreteDistribution):
            initial = DiscreteDistribution(np.asarray(initial, dtype=float))
        return cls(t, initial)

    @property
    def num_states(self) -> int:
        return int(self.transition.shape[0])


@dataclass(frozen=True, eq=False)
class WeightedMatrix:
    """Entrywise weights R_ij = P_ij Q_ij^(alpha-1) and s_i = p_i q_i^(alpha-1)."""

    entries: np.ndarray
    start: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassStructure:
    """Communication classes of a nonnegative matrix.

    ``classes`` lists the strongly connected components (state indices),
    ``self_communicating`` marks classes with an internal cycle (size > 1,
    or a positive diagonal), and ``reach`` is the transitive inclusive
    class-to-class reachability matrix.
    """

    classes: tuple[tuple[int, ...], ...]
    self_communicating: tuple[bool, ...]
    reach: np.ndarray
    labels: np.ndarray


def _check_reference(p_src: MarkovSource, q_src: MarkovSource, t: float):
    """Equal state counts and, below alpha = 1 (t < 0), where q^t has no
    limit at q = 0, strictly positive reference probabilities."""
    if p_src.num_states != q_src.num_states:
        raise DimensionMismatchError(f"state counts differ: {p_src.num_states} vs "
                                     f"{q_src.num_states}")
    if t < 0.0 and (np.any(q_src.transition == 0) or np.any(q_src.initial.probs == 0)):
        raise ZeroMassError(
            "alpha < 1 requires strictly positive reference transition "
            "probabilities and start masses"
        )


def build_weighted(p_src: MarkovSource, q_src: MarkovSource, alpha) -> WeightedMatrix:
    """Assemble the weighted matrix and start weights for a source pair.

    For alpha < 1 the exponent alpha - 1 is negative, so every reference
    transition probability and start mass must be strictly positive.  At
    alpha = 1 the weights are the source's own (P o Q^0 = P, 0^0 = 1).
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("weighted matrix needs a finite order")
    t = alpha.value - 1.0
    _check_reference(p_src, q_src, t)
    entries = p_src.transition * q_src.transition ** t
    start = p_src.initial.probs * q_src.initial.probs ** t
    return WeightedMatrix(entries, start)


def _closure(pattern: np.ndarray) -> np.ndarray:
    """Inclusive reachability of I + pattern by ceil(log2 K) boolean squarings."""
    reach = pattern | np.eye(pattern.shape[0], dtype=bool)
    for _ in range((pattern.shape[0] - 1).bit_length()):  # covers paths of length 2^j
        closure = reach.astype(float)
        reach = closure @ closure > 0
    return reach


def classify(matrix: np.ndarray) -> ClassStructure:
    """Strongly connected classes of the positivity pattern of a matrix.

    R, the inclusive reachability of I + pattern, is closed under
    ceil(log2 K) boolean squarings.  Two states share a class exactly when
    they reach each other, so the classes are the distinct rows of R & R^T;
    each is labelled by its smallest state, and the class reachability is R
    restricted to those representatives.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"need a square matrix, got shape {m.shape}")
    pattern = m > 0
    reach = _closure(pattern)
    mutual = reach & reach.T
    reps, labels = np.unique(np.argmax(mutual, axis=1), return_inverse=True)
    classes = tuple(tuple(np.flatnonzero(row).tolist()) for row in mutual[reps])
    self_comm = tuple(len(c) > 1 or bool(pattern[c[0], c[0]]) for c in classes)
    return ClassStructure(classes, self_comm, reach[np.ix_(reps, reps)], labels)


def perron_eigenpair(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron eigenvalue and positive eigenvector of an irreducible
    nonnegative matrix, by LAPACK (``numpy.linalg.eig``).

    The Perron root is the eigenvalue of largest real part; its eigenvector
    is taken in absolute value and scaled to sum to 1.  Raises
    NotIrreducibleError when the positivity pattern has more than one class
    (or a single degenerate state), NonConvergenceError when LAPACK fails
    or the residual max|m v - lambda v| exceeds 1e-12 times the largest
    row sum of m.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"need a square matrix, got shape {m.shape}")
    if np.any(m < 0):
        raise InvalidParameterError("matrix entries must be nonnegative")
    pattern = m > 0
    # irreducible: every state reaches every other, and a lone state loops
    if not _closure(pattern).all() or (m.shape[0] == 1 and not pattern[0, 0]):
        raise NotIrreducibleError(
            f"matrix has {len(classify(m).classes)} communication classes"
        )
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue solver failed: {exc}") from exc
    top = int(np.argmax(values.real))
    lam = float(values[top].real)
    v = np.abs(vectors[:, top])
    v /= v.sum()
    residual = float(np.max(np.abs(m @ v - lam * v)))
    bound = _RESIDUAL_FACTOR * float(m.sum(axis=1).max())
    if residual > bound:
        raise NonConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_FACTOR:g} "
            "* the largest row sum"
        )
    return lam, v


def perron_eigenvalue(matrix: np.ndarray) -> float:
    return perron_eigenpair(matrix)[0]


def _absorption_weights(p, start, states, closed: list) -> np.ndarray:
    """Probability that the chain P from ``start`` ends in each class of
    ``closed``, with the fundamental matrix (I - P_TT)^-1 of the transient
    states T among ``states``, those the start reaches."""
    member = np.zeros((p.shape[0], len(closed)))
    for j, idx in enumerate(closed):
        member[idx, j] = 1.0
    weights = start @ member
    trans = states[~member[states].any(axis=1)]
    if trans.size:
        into = np.linalg.solve(np.eye(trans.size) - p[np.ix_(trans, trans)], p[trans] @ member)
        weights = weights + start[trans] @ into
    return weights / weights.sum()


def cross_entropy_rate(p_src: MarkovSource, q_src: MarkovSource, alpha) -> float:
    """Asymptotic per-symbol cross-entropy ln(lambda) / (1 - alpha).

    Each self-communicating class of R = P o Q^t (t = alpha - 1) that the
    start reaches has the rate -ln(lambda_C) / t (see the module docstring);
    the chain takes the largest lambda_C, and at t = 0 the
    absorption-weighted mean of the closed classes.
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no rate form at the alpha -> infinity limit")
    t = alpha.value - 1.0
    built = build_weighted(p_src, q_src, alpha)
    weighted, start = built.entries, built.start
    p, q = p_src.transition, q_src.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        d = np.where(p > 0, p * (log_q if t == 0.0 else np.expm1(t * log_q) / t), 0.0)
    structure = classify(weighted)
    reachable = structure.reach[np.unique(structure.labels[start > 0])].any(axis=0)
    states = np.flatnonzero(reachable[structure.labels])
    if np.isneginf(d[states]).any():
        return math.inf  # the source makes a move the reference forbids
    # a closed class is one no source move leaves: P 1 = 1 on its block
    leaves = ((p > 0) & (structure.labels[:, None] != structure.labels)).any(axis=1)
    rates, blocks = [], []
    for ci in np.flatnonzero(reachable):
        idx = np.asarray(structure.classes[ci])
        is_closed = not leaves[idx].any()
        if not structure.self_communicating[ci] or not (is_closed or t != 0.0):
            continue
        lam, u = perron_eigenpair(weighted[np.ix_(idx, idx)].T)
        # a closed class has lambda = 1 + t slope; another one only lambda
        slope = float(u @ d[np.ix_(idx, idx)].sum(axis=1)) if is_closed else math.inf
        rates.append(-log1p_slope(t, slope) if abs(t * slope) < 0.5 else -math.log(lam) / t)
        blocks.append(idx)
    if not rates:
        raise DegenerateRateError("no reachable class has a cycle; the weighted products vanish")
    if len(rates) == 1 or t != 0.0:
        return min(rates) if t > 0.0 else max(rates)
    return float(_absorption_weights(p, start, states, blocks) @ np.array(rates))


def scaled_power(matrix: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """The power matrix^k of a nonnegative matrix as (M, ln c), matrix^k = c M.

    Binary powering; every product is divided by its largest row sum, whose
    log accumulates in ln c, so the entries of M stay at most 1 for any k.
    A power that vanishes comes back as (zeros, 0.0).
    """
    m = np.asarray(matrix, dtype=float)
    result, log_scale = np.eye(m.shape[0]), 0.0
    base, log_base = m, 0.0
    while k:
        norm = float(base.sum(axis=1).max())
        if norm <= 0.0:
            return np.zeros_like(m), 0.0
        base, log_base = base / norm, log_base + math.log(norm)
        if k & 1:
            result, log_scale = result @ base, log_scale + log_base
            norm = float(result.sum(axis=1).max())
            if norm <= 0.0:
                return np.zeros_like(m), 0.0
            result, log_scale = result / norm, log_scale + math.log(norm)
        k >>= 1
        if k:
            base, log_base = base @ base, 2.0 * log_base
    return result, log_scale


def finite_n_cross_entropy(p_src: MarkovSource, q_src: MarkovSource, alpha, n: int) -> float:
    """Exact length-n block cross-entropy per symbol.

    Evaluates (1/(n (1-alpha))) ln(s R^(n-1) 1) with R^(n-1) from scaled
    binary powering, so n in the thousands stays in range.  Only the states
    reachable from the start support enter the power, so a stronger class
    the start cannot reach does not scale the reachable entries away.
    Returns +inf when the product vanishes exactly (alpha > 1 and the
    source moves only through reference-impossible transitions).
    """
    alpha = AlphaOrder.coerce(alpha)
    if not alpha.is_finite_order:
        raise InvalidAlphaError("finite-n blocks need a finite order different from 1")
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    weighted = build_weighted(p_src, q_src, alpha)
    if weighted.start.sum() <= 0.0:
        return math.inf  # all start mass on reference-impossible states
    keep = _closure(weighted.entries > 0)[weighted.start > 0].any(axis=0)
    power, log_scale = scaled_power(weighted.entries[np.ix_(keep, keep)], n - 1)
    total = float(weighted.start[keep] @ power.sum(axis=1))
    if total <= 0.0:
        return math.inf
    return (math.log(total) + log_scale) / (n * (1.0 - alpha.value))


def shannon_rate_slope(p_src: MarkovSource, q_src: MarkovSource,
                       n: int = _SHANNON_SLOPE_N) -> float:
    """Shannon cross-entropy rate as the block-entropy slope n H_n - (n-1) H_{n-1}.

    The slope equals the expected per-step cost -sum_j P(j|i) ln Q(j|i)
    averaged over the step-(n-1) state occupation mu P^(n-2), which
    converges geometrically for irreducible aperiodic sources.  P^(n-2)
    comes from scaled binary powering; a stochastic P keeps its powers in
    range, so the scale is 1 up to rounding.  +inf when the source uses a
    transition of reference probability zero.
    """
    if p_src.num_states != q_src.num_states:
        raise DimensionMismatchError(
            f"state counts differ: {p_src.num_states} vs {q_src.num_states}"
        )
    n = int(n)
    if n < 2:
        raise InvalidParameterError(f"slope needs n >= 2, got {n}")
    p, q = p_src.transition, q_src.transition
    if np.any((p > 0) & (q == 0)):
        return math.inf
    with np.errstate(divide="ignore"):
        logq = np.where(q > 0, np.log(np.maximum(q, 1e-320)), 0.0)
    row_cost = -(p * logq).sum(axis=1)
    power, log_scale = scaled_power(p, n - 2)
    mu = math.exp(log_scale) * (p_src.initial.probs @ power)
    return float(mu @ row_cost)
