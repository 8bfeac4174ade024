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

At the alpha -> 1 marker the rate is the Shannon cross-entropy slope
n H_n - (n-1) H_{n-1} evaluated at n = 4096, which converges geometrically
for irreducible aperiodic chains.

Matrix powers (the finite-n blocks and the slope's state occupation) are
taken by binary powering with scaling, O(K^3 log n) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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

_ROW_SUM_TOLERANCE = 1e-12
_POWER_TOLERANCE = 1e-13
_POWER_MAX_ITER = 100_000
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


def build_weighted(p_src: MarkovSource, q_src: MarkovSource, alpha) -> WeightedMatrix:
    """Assemble the weighted matrix and start weights for a source pair.

    For alpha < 1 the exponent alpha - 1 is negative, so every reference
    transition probability and start mass must be strictly positive.
    """
    if p_src.num_states != q_src.num_states:
        raise DimensionMismatchError(
            f"state counts differ: {p_src.num_states} vs {q_src.num_states}"
        )
    alpha = AlphaOrder.coerce(alpha)
    if not alpha.is_finite_order:
        raise InvalidAlphaError("weighted matrix needs a finite order different from 1")
    a = alpha.value
    p, q = p_src.transition, q_src.transition
    p0, q0 = p_src.initial.probs, q_src.initial.probs
    if a < 1.0 and (np.any(q == 0) or np.any(q0 == 0)):
        raise ZeroMassError(
            "alpha < 1 requires strictly positive reference transition "
            "probabilities and start masses"
        )
    with np.errstate(divide="ignore"):
        entries = np.where(q > 0, p * q ** (a - 1.0), 0.0)
        start = np.where(q0 > 0, p0 * q0 ** (a - 1.0), 0.0)
    return WeightedMatrix(entries, start)


def classify(matrix: np.ndarray) -> ClassStructure:
    """Strongly connected classes of the positivity pattern of a matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"need a square matrix, got shape {m.shape}")
    pattern = m > 0
    count, labels = connected_components(csr_matrix(pattern), connection="strong")
    classes = tuple(
        tuple(int(i) for i in np.flatnonzero(labels == c)) for c in range(count)
    )
    self_comm = tuple(
        len(c) > 1 or bool(pattern[c[0], c[0]]) for c in classes
    )
    adjacency = np.eye(count, dtype=bool)
    for ci in range(count):
        rows = np.asarray(classes[ci])
        for cj in range(count):
            if ci == cj:
                continue
            if pattern[np.ix_(rows, np.asarray(classes[cj]))].any():
                adjacency[ci, cj] = True
    reach = adjacency.copy()
    for _ in range(count):  # transitive closure by boolean powering
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    return ClassStructure(classes, self_comm, reach, labels)


def perron_eigenpair(matrix: np.ndarray, tol: float = _POWER_TOLERANCE,
                     max_iter: int = _POWER_MAX_ITER) -> tuple[float, np.ndarray]:
    """Perron eigenvalue and positive eigenvector of an irreducible
    nonnegative matrix, by shifted power iteration.

    The diagonal shift (a tenth of the largest row sum) makes the iteration
    matrix primitive, so convergence is guaranteed; the shift cancels out
    of the eigenvalue exactly.  Iteration stops when the eigenpair residual
    max|m v - lambda v| drops below tol * lambda.  Raises
    NotIrreducibleError when the positivity pattern has more than one class
    (or a single degenerate state), NonConvergenceError when the residual
    fails to reach 1e-12 * lambda.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"need a square matrix, got shape {m.shape}")
    if np.any(m < 0):
        raise InvalidParameterError("matrix entries must be nonnegative")
    structure = classify(m)
    if len(structure.classes) != 1 or not structure.self_communicating[0]:
        raise NotIrreducibleError(
            f"matrix has {len(structure.classes)} communication classes"
        )
    k = m.shape[0]
    if k == 1:
        return float(m[0, 0]), np.array([1.0])
    shift = 0.1 * float(np.max(m.sum(axis=1)))
    v = np.full(k, 1.0 / k)
    lam = math.nan
    converged = False
    for _ in range(max_iter):
        w = m @ v + shift * v
        rayleigh = float(v @ w) / float(v @ v)
        lam = rayleigh - shift
        # (m + shift I) v - rayleigh v == m v - lam v exactly
        residual = float(np.max(np.abs(w - rayleigh * v)))
        v = w / w.sum()
        if residual <= tol * max(lam, 1e-300):
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iter} iterations"
        )
    residual = float(np.max(np.abs(m @ v - lam * v)))
    if residual > _RESIDUAL_FACTOR * max(lam, 1e-300):
        raise NonConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {_RESIDUAL_FACTOR:g} * lambda"
        )
    return lam, v


def perron_eigenvalue(matrix: np.ndarray) -> float:
    return perron_eigenpair(matrix)[0]


def _reachable_top_eigenvalue(weighted: WeightedMatrix) -> float:
    """Largest class eigenvalue reachable from the support of the start weights."""
    entries = weighted.entries
    structure = classify(entries)
    support = np.flatnonzero(weighted.start > 0)
    if support.size == 0:
        raise DegenerateRateError("start weights are identically zero")
    start_classes = np.unique(structure.labels[support])
    reachable = np.zeros(len(structure.classes), dtype=bool)
    for c in start_classes:
        reachable |= structure.reach[c]
    best = 0.0
    for ci, cls in enumerate(structure.classes):
        if not reachable[ci] or not structure.self_communicating[ci]:
            continue
        idx = np.asarray(cls)
        sub = entries[np.ix_(idx, idx)]
        best = max(best, perron_eigenpair(sub)[0])
    if best <= 0.0:
        raise DegenerateRateError(
            "every reachable class is degenerate; the weighted products vanish"
        )
    return best


def cross_entropy_rate(p_src: MarkovSource, q_src: MarkovSource, alpha) -> float:
    """Asymptotic per-symbol cross-entropy ln(lambda) / (1 - alpha).

    lambda is the Perron eigenvalue of the weighted matrix when it is
    irreducible, and otherwise the largest self-communicating class
    eigenvalue reachable from the start support.  The alpha -> 1 marker
    dispatches to the Shannon slope at n = 4096.
    """
    alpha = AlphaOrder.coerce(alpha)
    if alpha.is_inf:
        raise InvalidAlphaError("no rate form at the alpha -> infinity limit")
    if alpha.is_one:
        return shannon_rate_slope(p_src, q_src)
    weighted = build_weighted(p_src, q_src, alpha)
    lam = _reachable_top_eigenvalue(weighted)
    return math.log(lam) / (1.0 - alpha.value)


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


def _reachable(matrix: np.ndarray, start: np.ndarray) -> np.ndarray:
    """States reachable from the support of ``start`` (itself included)."""
    pattern = matrix > 0
    seen = start > 0
    while True:
        nxt = seen | pattern[seen].any(axis=0)
        if np.array_equal(nxt, seen):
            return seen
        seen = nxt


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
    keep = _reachable(weighted.entries, weighted.start)
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
