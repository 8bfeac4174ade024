import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    DiscreteDistribution,
    InvalidParameterError,
    cross_entropy_alpha_inf,
    kl_divergence,
    renyi_cross_entropy,
    renyi_divergence,
    renyi_entropy,
    shannon_cross_entropy,
    shannon_entropy,
)
from rxent.discrete import alt_cross_entropy

P = DiscreteDistribution(np.array([0.5, 0.3, 0.2]))
Q = DiscreteDistribution(np.array([0.4, 0.4, 0.2]))


class TestDistribution:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution(np.array([0.5, 0.6]))
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution(np.array([1.2, -0.2]))
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution(np.array([[0.5], [0.5]]))
        with pytest.raises(InvalidParameterError):
            DiscreteDistribution(np.array([]))

    def test_uniform(self):
        u = DiscreteDistribution.uniform(4)
        assert u.alphabet_size == 4
        assert_allclose(u.probs, 0.25)

    @pytest.mark.parametrize("size", [0, -1])
    def test_uniform_needs_a_symbol(self, size):
        with pytest.raises(InvalidParameterError, match="need a nonempty 1-D probability"):
            DiscreteDistribution.uniform(size)

    def test_tolerates_rounding(self):
        masses = np.full(3, 1.0 / 3.0)
        DiscreteDistribution(masses)  # sums to 1 within 1e-12

    def test_immutable(self):
        with pytest.raises(ValueError):
            P.probs[0] = 0.9


class TestShannon:
    def test_entropy(self):
        expected = -(0.5 * math.log(0.5) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2))
        assert_allclose(shannon_entropy(P), expected)

    def test_entropy_uniform(self):
        assert_allclose(shannon_entropy(DiscreteDistribution.uniform(8)), math.log(8))

    def test_cross_entropy(self):
        expected = -(0.5 * math.log(0.4) + 0.3 * math.log(0.4) + 0.2 * math.log(0.2))
        assert_allclose(shannon_cross_entropy(P, Q), expected)

    def test_cross_entropy_self(self):
        assert_allclose(shannon_cross_entropy(P, P), shannon_entropy(P))

    def test_kl_identity(self):
        assert_allclose(
            kl_divergence(P, Q), shannon_cross_entropy(P, Q) - shannon_entropy(P)
        )
        assert kl_divergence(P, P) == pytest.approx(0.0, abs=1e-15)

    def test_kl_infinite_on_missing_mass(self):
        q = DiscreteDistribution(np.array([1.0, 0.0, 0.0]))
        assert kl_divergence(P, q) == math.inf

    def test_zero_masses_skipped(self):
        p = DiscreteDistribution(np.array([0.5, 0.5, 0.0]))
        assert_allclose(shannon_entropy(p), math.log(2))


class TestRenyiEntropy:
    def test_known_value(self):
        # alpha = 2: -ln sum p^2
        assert_allclose(renyi_entropy(P, 2.0), -math.log(0.25 + 0.09 + 0.04))

    def test_limits(self):
        assert_allclose(renyi_entropy(P, AlphaOrder.one()), shannon_entropy(P))
        assert_allclose(renyi_entropy(P, AlphaOrder.inf()), -math.log(0.5))
        assert_allclose(renyi_entropy(P, 1000.0), -math.log(0.5), atol=2e-3)

    def test_uniform_all_orders(self):
        u = DiscreteDistribution.uniform(5)
        for a in (0.3, 0.9, AlphaOrder.one(), 2.0, 7.0, AlphaOrder.inf()):
            assert_allclose(renyi_entropy(u, a), math.log(5))


class TestRenyiCrossEntropy:
    def test_known_value_order_two(self):
        # sum p q = 0.5*0.4 + 0.3*0.4 + 0.2*0.2 = 0.36
        assert_allclose(renyi_cross_entropy(P, Q, 2.0), -math.log(0.36))

    def test_shannon_marker(self):
        assert_allclose(
            renyi_cross_entropy(P, Q, AlphaOrder.one()), shannon_cross_entropy(P, Q)
        )

    def test_continuity_at_one(self):
        at_one = renyi_cross_entropy(P, Q, AlphaOrder.one())
        for a in (1.0 + 1e-5, 1.0 - 1e-5):
            assert_allclose(renyi_cross_entropy(P, Q, a), at_one, atol=1e-4)

    def test_inf_marker(self):
        assert_allclose(renyi_cross_entropy(P, Q, AlphaOrder.inf()), -math.log(0.4))
        assert_allclose(cross_entropy_alpha_inf(Q), -math.log(0.4))

    def test_large_order_approaches_min_entropy(self):
        gap = abs(renyi_cross_entropy(P, Q, 1000.0) - (-math.log(0.4)))
        assert gap < 1e-2

    def test_inf_marker_respects_support_of_p(self):
        # the max of q is taken over the support of p only
        p = DiscreteDistribution(np.array([0.0, 0.5, 0.5]))
        q = DiscreteDistribution(np.array([0.9, 0.06, 0.04]))
        assert_allclose(renyi_cross_entropy(p, q, AlphaOrder.inf()), -math.log(0.06))

    def test_nonincreasing_in_alpha(self):
        orders = [0.2, 0.5, 0.9, 1.5, 2.0, 5.0, 50.0]
        values = [renyi_cross_entropy(P, Q, a) for a in orders]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-12

    def test_self_pair_is_renyi_entropy_of_matching_order(self):
        # H_a(p; p) equals the Renyi entropy only in the a -> 1 limit; at
        # a = 2 it equals the collision entropy as well since both reduce
        # to -ln sum p^2
        assert_allclose(renyi_cross_entropy(P, P, 2.0), renyi_entropy(P, 2.0))

    def test_alt_form_identity(self):
        # H_a(p;q) = D_a(p||q) + H_a(p) does NOT hold in general; the
        # alternative definition built from that sum is a distinct object
        for a in (0.5, 2.0, 3.0):
            alt = alt_cross_entropy(P, Q, a)
            assert_allclose(alt, renyi_divergence(P, Q, a) + renyi_entropy(P, a))
            assert abs(alt - renyi_cross_entropy(P, Q, a)) > 1e-4

    def test_alt_form_agrees_at_one(self):
        assert_allclose(
            alt_cross_entropy(P, Q, AlphaOrder.one()),
            renyi_cross_entropy(P, Q, AlphaOrder.one()),
        )


class TestZeroMassConventions:
    def setup_method(self):
        self.p = DiscreteDistribution(np.array([0.6, 0.4, 0.0]))
        self.q = DiscreteDistribution(np.array([0.5, 0.0, 0.5]))

    def test_alpha_below_one_is_infinite(self):
        assert renyi_cross_entropy(self.p, self.q, 0.5) == math.inf

    def test_alpha_above_one_drops_zero_cells(self):
        # q^(a-1) -> 0 as q -> 0 for a > 1, so the zero cell contributes 0
        expected = -math.log(0.6 * 0.5)
        assert_allclose(renyi_cross_entropy(self.p, self.q, 2.0), expected)

    def test_shannon_is_infinite(self):
        assert renyi_cross_entropy(self.p, self.q, AlphaOrder.one()) == math.inf

    def test_inf_ignores_zero_cells(self):
        assert_allclose(
            renyi_cross_entropy(self.p, self.q, AlphaOrder.inf()), -math.log(0.5)
        )

    def test_no_infinity_when_zeros_align(self):
        q = DiscreteDistribution(np.array([0.7, 0.3, 0.0]))
        assert math.isfinite(renyi_cross_entropy(self.p, q, 0.5))


class TestDivergence:
    def test_order_two(self):
        expected = math.log(0.25 / 0.4 + 0.09 / 0.4 + 0.04 / 0.2)
        assert_allclose(renyi_divergence(P, Q, 2.0), expected)

    def test_nonnegative(self):
        for a in (0.5, 2.0, 5.0):
            assert renyi_divergence(P, Q, a) >= 0.0
            assert renyi_divergence(P, P, a) == pytest.approx(0.0, abs=1e-14)

    def test_shannon_marker_is_kl(self):
        assert_allclose(renyi_divergence(P, Q, AlphaOrder.one()), kl_divergence(P, Q))

    def test_size_mismatch(self):
        from rxent.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            renyi_cross_entropy(P, DiscreteDistribution.uniform(4), 2.0)


def _bits(values):
    """repr of each value, so that -0.0, inf and nan compare by their bits."""
    return [repr(v) for v in values]


_HALF_ULP_ORDERS = [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),  # t = -0.5 -+ an ulp
                    np.nextafter(1.5, 1.0), np.nextafter(1.5, 2.0)]  # t = 0.5 -+ an ulp


class TestOrderGrids:
    """A grid call equals the per-order calls bit for bit: each order's sum
    is its own, whatever branch (t = 0, |t| < 1/2, log-space) it takes."""

    PAIRS = {
        "full": ([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]),
        "q-zero-on-support": ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]),
        "p-zero": ([0.6, 0.0, 0.4, 0.0], [0.1, 0.2, 0.3, 0.4]),
        "disjoint": ([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7]),
        # most of the mass of p where q is tiny: the mean of expm1(t ln q)
        # is below -1/2 at t = 0.4, and t ln(p/q) passes the log of the
        # largest double at t = 10
        "mean-below-half": ([0.9, 0.1], [1e-300, 1.0 - 1e-300]),
        "subnormal": ([0.5, 0.5], [1e-320, 1.0]),
    }
    ORDERS = ([0.05, 0.3, 0.7, 0.9, AlphaOrder.one(), 1.0 - 1e-9, 1.0 + 1e-9, 1.4, 2.0,
               11.0, 1000.0, AlphaOrder.inf()] + _HALF_ULP_ORDERS)

    def random_pairs(self):
        rng = np.random.default_rng(29)
        for k in (1, 2, 5, 40):
            for _ in range(5):
                p, q = rng.random(k) ** 3, rng.random(k) ** 3
                p[rng.random(k) < 0.2] = 0.0
                q[rng.random(k) < 0.2] = 0.0
                p[0], q[-1] = p[0] + 0.1, q[-1] + 0.1
                yield p / p.sum(), q / q.sum()

    def pairs(self):
        for p, q in self.PAIRS.values():
            yield np.array(p), np.array(q)
        yield from self.random_pairs()

    @pytest.mark.parametrize("measure", [renyi_cross_entropy, alt_cross_entropy,
                                         renyi_divergence])
    def test_pair_measures(self, measure):
        for p, q in self.pairs():
            p, q = DiscreteDistribution(p), DiscreteDistribution(q)
            orders = list(self.ORDERS)
            grid = measure(p, q, orders)
            assert isinstance(grid, list) and len(grid) == len(orders)
            assert _bits(grid) == _bits(measure(p, q, a) for a in orders)
            assert _bits(measure(p, q, tuple(orders[::-1]))) == _bits(grid[::-1])

    def test_entropy(self):
        for p, _ in self.pairs():
            p = DiscreteDistribution(p)
            grid = renyi_entropy(p, np.array([0.3, 0.9, 1.0, 1.5, 4.0]))
            assert _bits(grid) == _bits(renyi_entropy(p, a) for a in (0.3, 0.9, 1.0, 1.5, 4.0))
            orders = list(self.ORDERS)
            assert _bits(renyi_entropy(p, orders)) == _bits(renyi_entropy(p, a) for a in orders)

    def test_rows_take_the_expected_branch(self):
        # the log-space rows of a grid go through one logsumexp call
        from rxent import discrete

        calls = []
        original = discrete.logsumexp

        def counting(terms):
            calls.append(terms.shape)
            return original(terms)

        p, q = (DiscreteDistribution(np.array(v)) for v in self.PAIRS["mean-below-half"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discrete, "logsumexp", counting)
            grid = renyi_cross_entropy(p, q, [1.0, 1.001, 1.4, 2.0, 5.0])
        # t = 0.001 keeps its log1p mean (about -0.45); at t = 0.4 the mean is
        # about -0.9, and that row joins those of t = 1 and 4
        assert calls == [(3, 2)]
        assert grid[0] == shannon_cross_entropy(p, q)

    def test_one_order_returns_a_float_and_a_grid_a_list(self):
        assert isinstance(renyi_cross_entropy(P, Q, 2.0), float)
        assert isinstance(renyi_cross_entropy(P, Q, np.float64(2.0)), float)
        assert renyi_cross_entropy(P, Q, []) == []

    def test_size_mismatch_on_a_grid(self):
        from rxent.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            renyi_cross_entropy(P, DiscreteDistribution.uniform(4), [0.5, 2.0])
