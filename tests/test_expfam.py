import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from rxent import AlphaOrder, ExpFamilyDistribution, Family, NaturalParam
from rxent.errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    OutOfDomainError,
)
from rxent.expfam import (
    combine_natural,
    constant_log_base,
    log_base_expectation,
    log_partition,
    natural_in_domain,
    to_natural,
)
from rxent.specfun import betaln, gammaln

E = ExpFamilyDistribution


def scalar_members():
    return [
        E.beta(2.5, 3.5),
        E.beta(0.7, 1.2),
        E.chi_squared(4.0),
        E.chi_squared(1.0),
        E.exponential(2.0),
        E.gamma(2.5, 1.2),
        E.gamma(0.8, 3.0),
        E.gaussian(0.3, 1.7),
        E.laplace(0.7, 1.5),
    ]


def grid_for(d):
    if d.family is Family.BETA:
        return np.linspace(0.02, 0.98, 25)
    if d.family in (Family.CHI_SQUARED, Family.EXPONENTIAL, Family.GAMMA):
        return np.linspace(0.05, 12.0, 25)
    return np.linspace(-6.0, 6.0, 25)


class TestValidation:
    def test_parameter_ranges(self):
        with pytest.raises(InvalidParameterError):
            E.beta(0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            E.beta(1.0, -2.0)
        with pytest.raises(InvalidParameterError):
            E.chi_squared(0.0)
        with pytest.raises(InvalidParameterError):
            E.exponential(-1.0)
        with pytest.raises(InvalidParameterError):
            E.gamma(1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            E.gaussian(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            E.laplace(0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            E.gaussian(math.inf, 1.0)

    def test_mv_gaussian_needs_spd(self):
        with pytest.raises(NotPositiveDefiniteError):
            E.mv_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises((NotPositiveDefiniteError, InvalidParameterError)):
            E.mv_gaussian(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric

    def test_support_and_dim(self):
        assert E.beta(2, 2).support.length == 1.0
        assert E.exponential(1.0).support.kind.value == "positive_reals"
        assert E.gaussian(0, 1).support.kind.value == "all_reals"
        assert E.mv_gaussian(np.eye(3)).dim == 3
        assert E.gamma(1, 1).dim == 1


class TestPdf:
    def test_matches_scipy(self):
        frozen = [
            (E.beta(2.5, 3.5), stats.beta(2.5, 3.5)),
            (E.chi_squared(4.0), stats.chi2(4.0)),
            (E.exponential(2.0), stats.expon(scale=0.5)),
            (E.gamma(2.5, 1.2), stats.gamma(2.5, scale=1.2)),
            (E.gaussian(0.3, 1.7), stats.norm(0.3, math.sqrt(1.7))),
            (E.laplace(0.7, 1.5), stats.laplace(0.7, 1.5)),
        ]
        for d, ref in frozen:
            x = grid_for(d)
            assert_allclose([d.pdf(t) for t in x], ref.pdf(x), rtol=1e-12)

    def test_zero_outside_support(self):
        assert E.beta(2, 2).pdf(-0.5) == 0.0
        assert E.beta(2, 2).pdf(1.0) == 0.0
        assert E.exponential(1.0).pdf(-1.0) == 0.0
        assert E.chi_squared(1.0).pdf(0.0) == 0.0

    def test_boundary_conventions(self):
        assert E.chi_squared(2.0).pdf(0.0) == 0.5
        assert E.gamma(1.0, 2.0).pdf(0.0) == 0.5
        assert E.gamma(2.0, 2.0).pdf(0.0) == 0.0

    def test_logpdf_consistent(self):
        for d in scalar_members():
            for x in grid_for(d):
                assert_allclose(d.logpdf(x), math.log(d.pdf(x)), atol=1e-12)
        assert E.beta(2, 2).logpdf(2.0) == -math.inf
        assert E.exponential(1.0).logpdf(-1.0) == -math.inf

    def test_logpdf_reaches_past_pdf_underflow(self):
        d = E.gaussian(0.0, 1.0)
        assert d.pdf(60.0) == 0.0
        assert_allclose(d.logpdf(60.0), -1800.0 - 0.5 * math.log(2 * math.pi))

    def test_mv_gaussian_matches_scipy(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        d = E.mv_gaussian(cov)
        ref = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov)
        rng = np.random.default_rng(42)
        for point in rng.normal(size=(10, 2)):
            assert_allclose(d.pdf(point), ref.pdf(point), rtol=1e-12)

    def test_mv_gaussian_shape_check(self):
        d = E.mv_gaussian(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            d.pdf(np.zeros(3))


def mp_log_density(d, x) -> float:
    """ln f(x) of a scalar member at 30 digits."""
    with mp.workdps(30):
        x, p = mp.mpf(x), [mp.mpf(v) for v in d.params]
        if d.family is Family.BETA:
            a, b = p
            value = (a - 1) * mp.log(x) + (b - 1) * mp.log1p(-x) - mp.log(mp.beta(a, b))
        elif d.family is Family.CHI_SQUARED:
            h = p[0] / 2
            value = (h - 1) * mp.log(x) - x / 2 - h * mp.log(2) - mp.loggamma(h)
        elif d.family is Family.EXPONENTIAL:
            value = mp.log(p[0]) - p[0] * x
        elif d.family is Family.GAMMA:
            k, theta = p
            value = (k - 1) * mp.log(x) - x / theta - mp.loggamma(k) - k * mp.log(theta)
        elif d.family is Family.GAUSSIAN:
            mu, var = p
            value = -(x - mu) ** 2 / (2 * var) - mp.log(2 * mp.pi * var) / 2
        else:
            mu, s = p
            value = -abs(x - mu) / s - mp.log(2 * s)
        return float(value)


@st.composite
def members_and_points(draw):
    """A scalar member with parameters in [0.1, 20] and a point inside its support."""
    par = st.floats(0.1, 20.0)
    family = draw(st.sampled_from(["beta", "chi_squared", "exponential", "gamma",
                                   "gaussian", "laplace"]))
    if family == "beta":
        return E.beta(draw(par), draw(par)), draw(st.floats(1e-6, 1.0 - 1e-6))
    if family in ("gaussian", "laplace"):
        d = getattr(E, family)(draw(st.floats(-5.0, 5.0)), draw(par))
        return d, draw(st.floats(-30.0, 30.0))
    d = E.gamma(draw(par), draw(par)) if family == "gamma" else getattr(E, family)(draw(par))
    return d, draw(st.floats(1e-6, 60.0))


class TestLogDensity:
    """The log-density closure built once per member."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(members_and_points())
    def test_matches_mpmath(self, case):
        d, x = case
        want = mp_log_density(d, x)
        assert abs(d.logpdf(x) - want) <= 1e-13 * (1.0 + abs(want))

    @pytest.mark.parametrize("d, x, want", [
        (E.chi_squared(2.0), 0.0, mp.log(mp.mpf(1) / 2)),
        (E.gamma(1.0, 2.5), 0.0, -mp.log(mp.mpf(2.5))),
        (E.exponential(3.0), 0.0, mp.log(3)),
        (E.chi_squared(3.0), 0.0, -mp.inf),
        (E.gamma(1.5, 2.0), 0.0, -mp.inf),
        (E.gamma(0.5, 2.0), -1e-300, -mp.inf),
        (E.exponential(3.0), -1.0, -mp.inf),
        (E.beta(2.0, 3.0), 0.0, -mp.inf),
        (E.beta(2.0, 3.0), 1.0, -mp.inf),
    ])
    def test_support_edges(self, d, x, want):
        assert d.logpdf(x) == float(want)

    def test_keeps_the_classical_operation_order(self):
        # the closures fold constants in without reordering any formula,
        # so every value is bit-identical to the formula written out
        x = 0.37
        cases = [
            (E.beta(2.5, 3.5), 1.5 * math.log(x) + 2.5 * math.log1p(-x) - float(betaln(2.5, 3.5))),
            (E.chi_squared(3.0), (1.5 - 1) * math.log(x) - x / 2 - 1.5 * math.log(2)
             - float(gammaln(1.5))),
            (E.exponential(2.0), math.log(2.0) - 2.0 * x),
            (E.gamma(2.5, 1.2), 1.5 * math.log(x) - x / 1.2 - float(gammaln(2.5))
             - 2.5 * math.log(1.2)),
            (E.gaussian(0.3, 1.7), -((x - 0.3) * (x - 0.3)) / (2 * 1.7)
             - 0.5 * math.log(2 * math.pi * 1.7)),
            (E.laplace(0.7, 1.5), -abs(x - 0.7) / 1.5 - math.log(2 * 1.5)),
        ]
        for d, want in cases:
            assert d.logpdf(x) == want

    def test_built_once_on_first_use(self):
        for d in scalar_members() + [E.mv_gaussian(np.eye(2))]:
            assert "logpdf" not in vars(d)  # construction does not build it
            assert d.logpdf is d.logpdf

    def test_pickles_after_use(self):
        for d in scalar_members() + [E.mv_gaussian(np.array([[2.0, 0.6], [0.6, 1.0]]))]:
            x = np.ones(2) if d.dim == 2 else 0.5
            want = d.logpdf(x)
            back = pickle.loads(pickle.dumps(d))
            assert back.logpdf(x) == want and back.params == d.params

    def test_mv_gaussian_inverts_once(self, monkeypatch):
        from rxent import expfam

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(expfam, "spd_inverse", counted(expfam.spd_inverse))
        monkeypatch.setattr(expfam, "spd_logdet", counted(expfam.spd_logdet))
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        d = E.mv_gaussian(cov)
        ref = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov)
        for point in np.random.default_rng(7).normal(size=(50, 2)):
            assert_allclose(d.logpdf(point), ref.logpdf(point), rtol=1e-13)
        assert sorted(calls) == ["spd_inverse", "spd_logdet"]


class TestNaturalParam:
    def test_to_natural_values(self):
        # scalar components are tuples of plain floats, exactly these
        for d, want in [(E.gaussian(2.0, 4.0), (0.5, -0.125)), (E.exponential(3.0), (-3.0,)),
                        (E.laplace(0.7, 2.0), (-0.5,)), (E.beta(2.5, 3.5), (1.5, 2.5)),
                        (E.chi_squared(5.0), (1.5,)), (E.gamma(2.0, 0.5), (1.0, -2.0))]:
            eta = to_natural(d)
            assert eta.components == want
            assert all(type(c) is float for c in eta.components)
        assert to_natural(E.laplace(0.7, 2.0)).anchor == 0.7

    def test_to_natural_mv(self):
        # the multivariate parameter is the n x n matrix itself
        cov = np.array([[2.0, 0.0], [0.0, 4.0]])
        eta = to_natural(E.mv_gaussian(cov))
        assert eta.components.shape == (2, 2)
        assert_allclose(eta.components, [[-0.25, 0.0], [0.0, -0.125]])

    def test_domain_boundaries(self):
        assert natural_in_domain(NaturalParam(Family.EXPONENTIAL, (-0.1,)))
        assert not natural_in_domain(NaturalParam(Family.EXPONENTIAL, (0.0,)))
        assert natural_in_domain(NaturalParam(Family.CHI_SQUARED, (-0.5,)))
        assert not natural_in_domain(NaturalParam(Family.CHI_SQUARED, (-1.0,)))
        assert not natural_in_domain(NaturalParam(Family.BETA, (-1.0, 0.5)))
        assert natural_in_domain(NaturalParam(Family.BETA, (-0.5, 0.5)))
        assert not natural_in_domain(NaturalParam(Family.GAMMA, (0.5, 0.0)))
        assert not natural_in_domain(
            NaturalParam(Family.MV_GAUSSIAN_ZERO_MEAN, np.array([[0.5, 0], [0, -1]])))
        assert natural_in_domain(
            NaturalParam(Family.MV_GAUSSIAN_ZERO_MEAN, np.array([[-0.5, 0.1], [0.1, -1]])))

    def test_log_partition_values(self):
        # standard normal: A = 0
        assert_allclose(log_partition(to_natural(E.gaussian(0.0, 1.0))), 0.0, atol=1e-15)
        # exponential(2): A = ln 2
        assert_allclose(log_partition(to_natural(E.exponential(2.0))), math.log(2.0))
        # laplace scale 2: A = ln(1/4)
        assert_allclose(log_partition(to_natural(E.laplace(0.0, 2.0))), math.log(0.25))
        with pytest.raises(OutOfDomainError):
            log_partition(NaturalParam(Family.EXPONENTIAL, (0.5,)))


class TestCombine:
    def test_formula(self):
        eta1 = to_natural(E.gaussian(0.0, 1.0))
        eta2 = to_natural(E.gaussian(1.0, 2.0))
        combined = combine_natural(eta1, eta2, AlphaOrder(3.0))
        assert combined.components == (0.0 + 2.0 * 0.5, -0.5 + 2.0 * -0.25)

    def test_formula_mv(self):
        cov1, cov2 = np.array([[2.0, 0.6], [0.6, 1.0]]), np.array([[1.0, 0.2], [0.2, 3.0]])
        eta1, eta2 = to_natural(E.mv_gaussian(cov1)), to_natural(E.mv_gaussian(cov2))
        combined = combine_natural(eta1, eta2, AlphaOrder(1.5))
        assert_allclose(combined.components, eta1.components + 0.5 * eta2.components)
        with pytest.raises(DimensionMismatchError):
            combine_natural(eta1, to_natural(E.mv_gaussian(np.eye(3))), AlphaOrder(1.5))

    def test_alpha_one_returns_first(self):
        eta1 = to_natural(E.exponential(2.0))
        eta2 = to_natural(E.exponential(5.0))
        combined = combine_natural(eta1, eta2, AlphaOrder.one())
        assert_allclose(combined.components, eta1.components)

    def test_alpha_inf_rejected(self):
        eta = to_natural(E.exponential(2.0))
        with pytest.raises(InvalidAlphaError):
            combine_natural(eta, eta, AlphaOrder.inf())

    def test_family_mismatch(self):
        with pytest.raises(InvalidParameterError):
            combine_natural(
                to_natural(E.exponential(1.0)), to_natural(E.gaussian(0, 1)), 2.0
            )

    def test_laplace_anchor_mismatch(self):
        with pytest.raises(InvalidParameterError):
            combine_natural(
                to_natural(E.laplace(0.0, 1.0)), to_natural(E.laplace(1.0, 1.0)), 2.0
            )

    def test_out_of_domain(self):
        # exponential: eta_h = -0.1 - (0.5 - 1) * (-1) = ... leaves eta < 0
        eta1 = to_natural(E.exponential(0.1))
        eta2 = to_natural(E.exponential(1.0))
        with pytest.raises(OutOfDomainError):
            combine_natural(eta1, eta2, AlphaOrder(0.5))


class TestBaseMeasure:
    def test_constant_families(self):
        assert constant_log_base(Family.EXPONENTIAL) == 0.0
        assert constant_log_base(Family.GAMMA) == 0.0
        assert constant_log_base(Family.LAPLACE_EQUAL_MEAN) == 0.0
        assert_allclose(constant_log_base(Family.GAUSSIAN), -0.5 * math.log(2 * math.pi))
        assert_allclose(
            constant_log_base(Family.MV_GAUSSIAN_ZERO_MEAN, dim=3),
            -1.5 * math.log(2 * math.pi),
        )
        assert constant_log_base(Family.BETA) == 0.0
        assert constant_log_base(Family.CHI_SQUARED) is None

    def test_constant_expectation_is_exact(self):
        # ln E[b^(alpha-1)] / (alpha - 1) is ln b itself for a constant base
        for d in (E.exponential(2.0), E.gamma(2.0, 1.0), E.gaussian(0.0, 1.0)):
            eta = to_natural(d)
            for a in (0.5, 2.0, 3.0, AlphaOrder.one()):
                expected = constant_log_base(d.family)
                assert log_base_expectation(eta, AlphaOrder.coerce(a)) == expected

    def test_chi_squared_expectation_analytic(self):
        # E[exp(-(alpha-1) X / 2)] under chi-squared(nu) is alpha^(-nu/2)
        for nu in (1.0, 2.0, 4.0, 7.5):
            eta = to_natural(E.chi_squared(nu))
            for a in (0.5, 2.0, 3.0, 5.0, 1.0 + 1.01e-9):
                value = log_base_expectation(eta, AlphaOrder(a))
                assert_allclose(value, -(nu / 2) * math.log(a) / (a - 1.0), rtol=1e-11,
                                atol=1e-12)

    @staticmethod
    def _assert_exact_beta_domain(params1, params2, alphas):
        # the combined Beta parameter leaves the domain exactly when
        # a1 + (alpha-1)(a2-1) <= 0 or b1 + (alpha-1)(b2-1) <= 0; returns
        # how many of the orders lie outside
        eta1, eta2 = to_natural(E.beta(*params1)), to_natural(E.beta(*params2))
        outside = 0
        for a in alphas:
            exists = all(c1 + (a - 1) * (c2 - 1) > 0 for c1, c2 in zip(params1, params2))
            if exists:
                combine_natural(eta1, eta2, AlphaOrder(a))
            else:
                outside += 1
                with pytest.raises(OutOfDomainError):
                    combine_natural(eta1, eta2, AlphaOrder(a))
        return outside

    def test_beta_domain_edge_below_one(self):
        # a1 = 0.3, a2 = 3: the edge sits at alpha = 0.85
        edge = 0.85
        alphas = [edge * (1 + d) for d in (-1e-2, -1e-9, 1e-9, 1e-2)] + [0.5, 0.95, 2.0]
        assert self._assert_exact_beta_domain((0.3, 2.0), (3.0, 2.0), alphas) == 3

    def test_beta_domain_edge_above_one(self):
        # a-edge at alpha = 2.875 (a2 < 1), b-edge at alpha = 5 (b2 < 1)
        alphas = [e * (1 + d) for e in (2.875, 5.0) for d in (-1e-2, -1e-9, 1e-9, 1e-2)]
        assert self._assert_exact_beta_domain((1.5, 2.0), (0.2, 0.5), alphas + [0.5, 1.5]) == 6
        assert self._assert_exact_beta_domain((4.0, 2.0), (2.0, 0.5), alphas + [0.5, 1.5]) == 2

    def test_alpha_one_is_the_mean_log_base(self):
        # E[ln b(X)]: ln b for a constant base, E[-X / 2] = -nu / 2 for chi-squared
        assert log_base_expectation(to_natural(E.beta(2, 3)), AlphaOrder.one()) == 0.0
        assert log_base_expectation(to_natural(E.chi_squared(3.0)), AlphaOrder.one()) == -1.5
        assert_allclose(log_base_expectation(to_natural(E.gaussian(0, 1)), AlphaOrder.one()),
                        -0.5 * math.log(2 * math.pi), rtol=1e-15)
