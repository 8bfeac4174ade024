import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    DegenerateRateError,
    DimensionMismatchError,
    DiscreteDistribution,
    InvalidAlphaError,
    InvalidParameterError,
    MarkovSource,
    NotIrreducibleError,
    ZeroMassError,
    cross_entropy_rate,
    finite_n_cross_entropy,
    perron_eigenvalue,
    renyi_cross_entropy,
    shannon_rate_slope,
)
from rxent.markov import build_weighted, classify, perron_eigenpair, scaled_power

P_CHAIN = np.array([[0.9, 0.1], [0.2, 0.8]])
Q_CHAIN = np.array([[0.7, 0.3], [0.4, 0.6]])


def two_state_perron(m):
    (a, b), (c, d) = m
    return 0.5 * ((a + d) + math.sqrt((a - d) ** 2 + 4 * b * c))


class TestMarkovSource:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MarkovSource.of(np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidParameterError):
            MarkovSource.of(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(InvalidParameterError):
            MarkovSource.of(np.array([[1.5, -0.5], [0.5, 0.5]]))
        with pytest.raises(DimensionMismatchError):
            MarkovSource.of(P_CHAIN, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5]], "transition matrix must be square, got (1, 2)"),
        ([[math.nan, 0.6], [0.5, 0.5]], "transition probabilities must be finite"),
        ([[0.5, 0.4], [0.5, math.nan]], "transition probabilities must be finite"),
        ([[math.nan, -0.5], [0.5, 0.5]], "transition probabilities must be finite"),
        ([[math.inf, -math.inf], [0.5, 0.5]], "transition probabilities must be finite"),
        ([[0.5, 0.4], [math.inf, 0.0]], "transition probabilities must be finite"),
        ([[0.5, 0.4], [1.5, -0.5]], "transition probabilities must be nonnegative"),
        ([[0.5, 0.4], [0.5, 0.5]], f"row 0 sums to {np.float64(0.9)!r}, not 1"),
        ([[0.5, 0.5], [0.2, 0.2]], f"row 1 sums to {np.float64(0.4)!r}, not 1"),
    ])
    def test_refusals_in_check_order(self, rows, message):
        with pytest.raises(InvalidParameterError) as info:
            MarkovSource.of(np.array(rows))
        assert str(info.value) == message

    def test_row_sum_that_overflows_is_a_sum_refusal(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(InvalidParameterError) as info:
                MarkovSource.of(np.array([[1e308, 1e308], [0.5, 0.5]]))
        assert str(info.value) == f"row 0 sums to {np.float64(math.inf)!r}, not 1"

    def test_negative_zero_is_a_zero_entry(self):
        src = MarkovSource.of(np.array([[-0.0, 1.0], [0.5, 0.5]]))
        assert math.copysign(1.0, src.transition[0, 0]) == -1.0

    def test_owns_a_read_only_copy(self):
        rows = np.array([[0.9, 0.1], [0.2, 0.8]])
        for given in (rows, rows.tolist(), rows.T.copy().T):  # the last is Fortran-ordered
            src = MarkovSource.of(given, [0.5, 0.5])
            assert not src.transition.flags.writeable and src.transition.flags.c_contiguous
            assert src.transition is not given and not np.shares_memory(src.transition, given)
            assert src.transition.tolist() == rows.tolist()
        assert rows.flags.writeable

    def test_default_start_is_uniform(self):
        src = MarkovSource.of(P_CHAIN)
        assert_allclose(src.initial.probs, 0.5)
        assert src.num_states == 2

    def test_immutable(self):
        src = MarkovSource.of(P_CHAIN)
        with pytest.raises(ValueError):
            src.transition[0, 0] = 0.5


class TestBuildWeighted:
    def test_entries(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        w = build_weighted(p, q, 3.0)
        assert_allclose(w.entries, P_CHAIN * Q_CHAIN**2)
        assert_allclose(w.start, 0.5 * 0.5**2)

    def test_zero_reference_below_one(self):
        q = MarkovSource.of(np.array([[1.0, 0.0], [0.5, 0.5]]))
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(ZeroMassError):
            build_weighted(p, q, 0.5)
        # fine above 1: the zero cell just contributes nothing
        w = build_weighted(p, q, 2.0)
        assert w.entries[0, 1] == 0.0

    def test_markers_rejected(self):
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(InvalidAlphaError):
            build_weighted(p, p, AlphaOrder.inf())

    def test_order_one_keeps_the_source_weights(self):
        # P o Q^0 = P, also where Q vanishes (0^0 = 1)
        q = MarkovSource.of(np.array([[1.0, 0.0], [0.5, 0.5]]))
        p = MarkovSource.of(P_CHAIN)
        w = build_weighted(p, q, AlphaOrder.one())
        assert np.array_equal(w.entries, P_CHAIN)
        assert np.array_equal(w.start, p.initial.probs)


class TestClassify:
    def test_irreducible(self):
        s = classify(P_CHAIN)
        assert len(s.classes) == 1
        assert s.self_communicating == (True,)

    def test_block_triangular(self):
        m = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.3, 0.7]])
        s = classify(m)
        assert len(s.classes) == 2
        assert all(s.self_communicating)
        by_states = {frozenset(c) for c in s.classes}
        assert by_states == {frozenset({0, 1}), frozenset({2})}
        # the singleton {2} can reach the closed block {0, 1}, not vice versa
        c2 = next(i for i, c in enumerate(s.classes) if set(c) == {2})
        c01 = 1 - c2
        assert s.reach[c2, c01] and not s.reach[c01, c2]

    def test_transient_singleton(self):
        m = np.array([[0.0, 1.0], [0.0, 1.0]])
        s = classify(m)
        flags = dict(zip((frozenset(c) for c in s.classes), s.self_communicating))
        assert flags[frozenset({0})] is False and flags[frozenset({1})] is True

    def test_interleaved_classes_are_labelled_by_state(self):
        # classes {0, 2}, {1} (a self-loop) and {3, 4}, in that order
        m = np.zeros((5, 5))
        for i, j in ((0, 2), (2, 0), (0, 1), (1, 1), (1, 3), (3, 4), (4, 3)):
            m[i, j] = 0.5
        s = classify(m)
        assert s.classes == ((0, 2), (1,), (3, 4))
        assert s.self_communicating == (True, True, True)
        assert s.labels.tolist() == [0, 1, 0, 2, 2]
        assert s.reach.tolist() == [[True, True, True], [False, True, True],
                                    [False, False, True]]
        m[1, 1] = 0.0
        assert classify(m).self_communicating == (True, False, True)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_one_class_equals_the_general_path(self, k):
        # an irreducible pattern classified alone (one class) and with a
        # state of its own appended (the general path): same first class
        rng = np.random.default_rng(k)
        for _ in range(20):
            m = (rng.random((k, k)) < 0.5) * rng.random((k, k))
            m[np.arange(k), (np.arange(k) + 1) % k] = 0.3  # a cycle through every state
            m[0, 0] = rng.choice([0.0, 0.2])
            one = classify(m)
            wider = classify(np.pad(m, ((0, 1), (0, 1))))
            assert wider.classes[:1] == one.classes == (tuple(range(k)),)
            assert wider.self_communicating[:1] == one.self_communicating
            assert type(one.self_communicating[0]) is bool
            assert one.self_communicating == (k > 1 or m[0, 0] > 0,)
            assert one.reach.dtype == wider.reach.dtype and one.reach.tolist() == [[True]]
            assert wider.reach[:1, :1].tolist() == [[True]]
            assert one.labels.dtype == wider.labels.dtype
            assert one.labels.tolist() == wider.labels[:k].tolist() == [0] * k

    def test_identity_gives_singletons(self):
        s = classify(np.eye(300))
        assert s.classes == tuple((i,) for i in range(300))
        assert all(s.self_communicating)
        assert np.array_equal(s.reach, np.eye(300, dtype=bool))


class TestPerron:
    def test_two_state_analytic(self):
        m = P_CHAIN * Q_CHAIN**2
        lam, v = perron_eigenpair(m)
        assert_allclose(lam, two_state_perron(m), rtol=1e-12)
        assert np.all(v > 0)
        assert_allclose(m @ v, lam * v, atol=1e-12 * lam)

    def test_stochastic_matrix_gives_one(self):
        assert_allclose(perron_eigenvalue(P_CHAIN), 1.0, rtol=1e-12)

    def test_periodic_matrix(self):
        # the two-cycle has eigenvalues +-1; the Perron root is the one of
        # largest real part
        lam, v = perron_eigenpair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(lam, 1.0, rtol=1e-12)
        assert_allclose(v, [0.5, 0.5], atol=1e-10)

    def test_single_state(self):
        lam, v = perron_eigenpair(np.array([[0.7]]))
        assert lam == 0.7 and v[0] == 1.0

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducibleError, match="has 2 communication classes"):
            perron_eigenpair(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(NotIrreducibleError, match="has 1 communication classes"):
            perron_eigenpair(np.array([[0.0]]))

    def test_rate_classifies_once(self, monkeypatch):
        from rxent import markov

        calls = []

        def counting(m):
            calls.append(m.shape)
            return classify(m)

        monkeypatch.setattr(markov, "classify", counting)
        # two self-communicating classes, both reachable from the start
        p = MarkovSource.of(np.array([[0.5, 0.5, 0.0], [0.0, 0.7, 0.3], [0.0, 0.4, 0.6]]))
        q = MarkovSource.of(np.array([[0.6, 0.4, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]))
        assert math.isfinite(cross_entropy_rate(p, q, 2.0))
        assert calls == [(3, 3)]

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            perron_eigenpair(np.array([[1.0, -0.1], [0.5, 0.5]]))

    def test_scale_equivariance(self):
        m = P_CHAIN * Q_CHAIN**2
        assert_allclose(perron_eigenvalue(3.0 * m), 3.0 * perron_eigenvalue(m),
                        rtol=1e-12)

    def test_tiny_scale(self):
        # the residual check scales with the row sums, not with lambda
        m = P_CHAIN * Q_CHAIN**2
        assert_allclose(perron_eigenvalue(1e-200 * m), 1e-200 * perron_eigenvalue(m),
                        rtol=1e-12)


class TestRate:
    @pytest.mark.parametrize("a", [0.3, 0.7, "one", 1.5, 2.0, 4.0])
    def test_rank_one_chain_is_discrete(self, a):
        # rows all p against rows all q: the weighted matrix has rank one and
        # the rate is the discrete cross-entropy of p against q
        p_row, q_row = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.2, 0.6])
        p = MarkovSource.of(np.tile(p_row, (3, 1)), p_row)
        q = MarkovSource.of(np.tile(q_row, (3, 1)), q_row)
        expected = renyi_cross_entropy(DiscreteDistribution(p_row),
                                       DiscreteDistribution(q_row), a)
        assert_allclose(cross_entropy_rate(p, q, a), expected, rtol=1e-12)

    def test_self_pair_order_three(self):
        p = MarkovSource.of(np.array([[0.9, 0.1], [0.2, 0.8]]))
        rate = cross_entropy_rate(p, p, 3.0)
        lam = two_state_perron(p.transition**3)
        assert_allclose(lam, 0.7290368600983095, rtol=1e-12)
        assert_allclose(rate, math.log(lam) / (1.0 - 3.0), rtol=1e-12)
        assert_allclose(rate, 0.15801549285130007, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
    def test_two_state_analytic(self, a):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        lam = two_state_perron(P_CHAIN * Q_CHAIN ** (a - 1.0))
        assert_allclose(cross_entropy_rate(p, q, a), math.log(lam) / (1.0 - a),
                        rtol=1e-10)

    @pytest.mark.parametrize("a", [0.5, "one", 2.0, 5.0])
    def test_uniform_reference_is_log_alphabet(self, a):
        # R = P / K^(alpha-1) has row sums K^(1-alpha), so lambda is
        # K^(1-alpha) and the rate is ln K at every order
        rng = np.random.default_rng(42)
        raw = rng.uniform(0.1, 1.0, size=(4, 4))
        p = MarkovSource.of(raw / raw.sum(axis=1, keepdims=True))
        q = MarkovSource.of(np.full((4, 4), 0.25))
        assert_allclose(cross_entropy_rate(p, q, a), math.log(4.0), rtol=1e-9)

    def test_reducible_depends_on_start(self):
        t = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.3, 0.7]])
        q = MarkovSource.of(t)
        # uniform start sees both classes: lambda = max(0.25, 0.343)
        p_all = MarkovSource.of(t)
        assert_allclose(
            cross_entropy_rate(p_all, q, 3.0), math.log(0.343) / (1 - 3), rtol=1e-10
        )
        # start confined to the closed block {0, 1}: lambda = 0.25
        p_block = MarkovSource.of(t, [0.5, 0.5, 0.0])
        assert_allclose(
            cross_entropy_rate(p_block, q, 3.0), math.log(0.25) / (1 - 3), rtol=1e-10
        )

    def test_degenerate_products(self):
        p = MarkovSource.of(np.array([[0.0, 1.0], [0.0, 1.0]]))
        q = MarkovSource.of(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateRateError):
            cross_entropy_rate(p, q, 2.0)
        assert finite_n_cross_entropy(p, q, 2.0, 8) == math.inf

    def test_alpha_inf_rejected(self):
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(InvalidAlphaError):
            cross_entropy_rate(p, p, AlphaOrder.inf())


def rate_outcome(p_src, q_src, a):
    """The rate, or the type and message of the error it raises."""
    try:
        return cross_entropy_rate(p_src, q_src, a)
    except Exception as exc:
        return type(exc), str(exc)


def fresh(src):
    return MarkovSource.of(src.transition.copy(), src.initial.probs.copy())


class TestClassPlanMemo:
    """A source reused across orders and references gives, bit for bit, the
    outcome of a fresh evaluation on newly built sources."""

    def check_sweep(self, p, refs, orders):
        seen = []
        for a in orders:
            for q in refs:
                got = rate_outcome(p, q, a)
                assert got == rate_outcome(fresh(p), fresh(q), a), (a, got)
                seen.append(got)
        return seen

    def test_reference_zeros_on_the_source_support(self):
        # t < 0 is refused, t = 0 keeps the source pattern (0^0 = 1) and
        # t > 0 drops the transition 0 -> 2, so the pattern changes with t
        p = MarkovSource.of(np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]))
        q = MarkovSource.of(np.array([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]))
        orders = [0.5, "one", 2.0, "one", 0.5, 3.0, 1.5, "one", 0.8, 2.0]
        seen = self.check_sweep(p, [q], orders)
        assert seen[0][0] is ZeroMassError and seen[1] == math.inf
        assert math.isfinite(seen[2]) and math.isfinite(seen[5])

    def test_underflowing_reference_keeps_the_degenerate_verdict(self):
        p = MarkovSource.of(np.array([[0.2, 0.8], [0.5, 0.5]]))
        q = MarkovSource.of(np.array([[0.6, 0.4], [0.3, 0.7]]))
        seen = self.check_sweep(p, [q], [0.5, "one", 2.0, 1000.0, 1100.0, 1000.0, 1100.0, 0.3])
        assert_allclose(seen[3], 0.357369, rtol=1e-6)
        assert seen[4] == (DegenerateRateError,
                           "no reachable class has a cycle; the weighted products vanish")

    def test_two_references_alternate(self):
        # a reducible source against a positive reference and one with a
        # zero on the source's support: the two patterns alternate
        p = MarkovSource.of(np.array([[0.5, 0.5, 0.0], [0.0, 0.7, 0.3], [0.0, 0.4, 0.6]]))
        dense = MarkovSource.of(np.array([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.1, 0.8, 0.1]]))
        sparse = MarkovSource.of(np.array([[0.6, 0.4, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]))
        seen = self.check_sweep(p, [dense, sparse], [0.4, "one", 1.5, 2.0, 4.0, 0.7, "one"])
        assert seen[1][0] is ZeroMassError and seen[3] == math.inf
        assert all(math.isfinite(v) for v in seen[4:10])


class TestSingletonClasses:
    """A class of one state has lambda = R_ii and u = [1]: no eigen-solve."""

    def test_self_loop_is_the_lapack_eigenpair(self):
        for w in (1e-320, 2.5e-300, 0.3, 1.0, 7.0, 1e300):
            lam, u = perron_eigenpair(np.array([[w]]))
            assert lam == w and u.tolist() == [1.0]

    def test_absorbing_chain_takes_no_eigen_solve(self, monkeypatch):
        # an upper-triangular source: each state is its own class, the last closed
        p = MarkovSource.of(np.array([[0.5, 0.3, 0.2], [0.0, 0.6, 0.4], [0.0, 0.0, 1.0]]))
        q = MarkovSource.of(np.array([[0.2, 0.3, 0.5], [0.3, 0.3, 0.4], [0.1, 0.8, 0.1]]))
        solves, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: solves.append(m.shape) or eig(m))
        orders = [0.5, "one", 2.0, 5.0]
        rates = cross_entropy_rate(p, q, orders)
        assert solves == []
        for a, rate in zip(orders, rates):
            t = AlphaOrder.coerce(a).value - 1.0
            if t == 0.0:  # the chain ends in state 2
                assert rate == pytest.approx(-math.log(0.1), rel=1e-14)
                continue
            lam = [0.5 * 0.2 ** t, 0.6 * 0.3 ** t, 0.1 ** t]  # the largest one counts
            assert rate == pytest.approx(-math.log(max(lam)) / t, rel=1e-13)


class TestShannonSlope:
    def test_matches_stationary_formula(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])  # stationary for P_CHAIN
        expected = float(pi @ (-(P_CHAIN * np.log(Q_CHAIN)).sum(axis=1)))
        assert_allclose(shannon_rate_slope(p, q), expected, rtol=1e-12)

    def test_rate_marker_matches_slope(self):
        # the rate takes the marker from its stationary law, the slope from
        # the block entropies, whose powers of P round to about 1e-13
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        pi = np.array([2.0 / 3.0, 1.0 / 3.0])
        expected = float(pi @ (-(P_CHAIN * np.log(Q_CHAIN)).sum(axis=1)))
        assert_allclose(cross_entropy_rate(p, q, "one"), expected, rtol=1e-15)
        assert_allclose(cross_entropy_rate(p, q, "one"), shannon_rate_slope(p, q), rtol=1e-12)

    def test_infinite_on_impossible_transition(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert shannon_rate_slope(p, q) == math.inf

    def test_continuity_near_one(self):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        slope = shannon_rate_slope(p, q)
        for a in (1.0 + 1e-4, 1.0 - 1e-4):
            assert_allclose(cross_entropy_rate(p, q, a), slope, atol=1e-3)


class TestFiniteBlocks:
    def test_single_step_is_start_term(self):
        p = MarkovSource.of(P_CHAIN, [1.0, 0.0])
        q = MarkovSource.of(Q_CHAIN, [0.5, 0.5])
        # n = 1: (1/(1-a)) ln sum_i p_i q_i^(a-1)
        expected = math.log(1.0 * 0.5) / (1.0 - 2.0)
        assert_allclose(finite_n_cross_entropy(p, q, 2.0, 1), expected, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0])
    def test_converges_to_rate(self, a):
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        limit = cross_entropy_rate(p, q, a)
        assert abs(finite_n_cross_entropy(p, q, a, 4000) - limit) < 5e-3

    def test_long_blocks_stay_finite(self):
        # scaled powering keeps n = 10^4 in floating range even though the
        # raw product underflows
        p = MarkovSource.of(P_CHAIN)
        q = MarkovSource.of(Q_CHAIN)
        v = finite_n_cross_entropy(p, q, 5.0, 10_000)
        assert math.isfinite(v)

    def test_invalid_n(self):
        p = MarkovSource.of(P_CHAIN)
        with pytest.raises(InvalidParameterError):
            finite_n_cross_entropy(p, p, 2.0, 0)


def stepped_power(m, k):
    """m^k as (M, ln c) by k renormalized single steps."""
    result, log_scale = np.eye(m.shape[0]), 0.0
    for _ in range(k):
        result = result @ m
        norm = result.sum(axis=1).max()
        result, log_scale = result / norm, log_scale + math.log(norm)
    return result, log_scale


def stepped_slope(p_src, q_src, n=4096):
    row_cost = -(p_src.transition * np.log(q_src.transition)).sum(axis=1)
    mu = p_src.initial.probs.copy()
    for _ in range(n - 2):
        mu = mu @ p_src.transition
    return float(mu @ row_cost)


def random_source(rng, k):
    raw = rng.uniform(0.05, 1.0, size=(k, k))
    return MarkovSource.of(raw / raw.sum(axis=1, keepdims=True))


class TestScaledPower:
    @pytest.mark.parametrize("k", [1, 2, 3, 1000])
    def test_matches_stepped_power(self, k):
        rng = np.random.default_rng(k)
        for size in (2, 5, 16):
            m = rng.uniform(0.0, 3.0, size=(size, size))
            m[rng.uniform(size=m.shape) < 0.3] = 0.0
            m[np.arange(size), (np.arange(size) + 1) % size] += 0.5  # irreducible
            power, log_scale = scaled_power(m, k)
            expected, expected_log = stepped_power(m, k)
            assert_allclose(log_scale, expected_log, rtol=1e-12)
            assert_allclose(power, expected, rtol=1e-11, atol=1e-300)

    def test_zeroth_power_is_identity(self):
        power, log_scale = scaled_power(np.zeros((3, 3)), 0)
        assert_allclose(power, np.eye(3))
        assert log_scale == 0.0

    def test_vanishing_power(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        power, log_scale = scaled_power(nilpotent, 2)
        assert not power.any() and log_scale == 0.0

    def test_entries_stay_in_range(self):
        power, log_scale = scaled_power(np.full((2, 2), 1e-3), 10_000)
        assert power.max() == pytest.approx(0.5)
        assert_allclose(log_scale, 10_000 * math.log(2e-3), rtol=1e-12)


class TestStructuredKernelsMatchSteps:
    def test_slope_matches_stepped_occupation(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 8, 32):
            p, q = random_source(rng, k), random_source(rng, k)
            for n in (2, 3, 4096):
                assert_allclose(shannon_rate_slope(p, q, n), stepped_slope(p, q, n),
                                rtol=1e-12)

    def test_unreachable_stronger_class_does_not_scale_start_away(self):
        # the start sits in the weak block {0}; the block {1} is 1000 times
        # heavier but unreachable, and 1e-3^4000 underflows any shared scale
        p = MarkovSource.of(np.eye(2), [1.0, 0.0])
        q = MarkovSource.of(np.array([[0.5, 0.5], [1e-3, 1.0 - 1e-3]]))
        expected = -math.log(0.5)
        assert_allclose(finite_n_cross_entropy(p, q, 2.0, 4000), expected, rtol=1e-12)
