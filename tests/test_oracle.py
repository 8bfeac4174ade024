import contextlib
import io
import json
import math
from collections import Counter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from rxent import AlphaOrder, ExpFamilyDistribution, cross_entropy_closed
from rxent.cli import main
from rxent.differential import cross_entropy_multivariate_gaussian
from rxent.errors import (
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
)
from rxent.oracle import (
    cross_entropy_grid2d_gaussian,
    cross_entropy_numeric,
    gaussian_log_form_2d,
    integrate,
    mgf_numeric,
    quad,
)
from rxent.support import ALL_REALS, POSITIVE_REALS, SupportSpec, UNIT_INTERVAL

UNIT = UNIT_INTERVAL
HALF = POSITIVE_REALS
LINE = ALL_REALS

# (integrand, support, exact value): a battery of integrals with known
# closed-form answers, spanning compact/half-line/full-line domains,
# endpoint singularities, heavy tails, and shifted peaks.
KNOWN_INTEGRALS = [
    (lambda x: x * x, UNIT, 1.0 / 3.0),
    (lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, UNIT, 2.0),
    (lambda x: -math.log(x) if x > 0 else 0.0, UNIT, 1.0),
    (lambda x: x ** 4 * (1 - x) ** 3, UNIT, 1.0 / 280.0),
    (lambda x: math.sin(10 * x), UNIT, (1 - math.cos(10.0)) / 10.0),
    (lambda x: math.exp(-x), HALF, 1.0),
    (lambda x: 3.0 * math.exp(-3.0 * x), HALF, 1.0),
    (lambda x: x * math.exp(-x), HALF, 1.0),
    (lambda x: x * x * math.exp(-x), HALF, 2.0),
    (lambda x: math.exp(-x * x), HALF, math.sqrt(math.pi) / 2.0),
    (lambda x: x ** 2.5 * math.exp(-2.0 * x), HALF, gamma_fn(3.5) / 2.0 ** 3.5),
    (lambda x: 1.0 / (1.0 + x) ** 3, HALF, 0.5),
    (lambda x: math.exp(-x) * math.sin(x), HALF, 0.5),
    (lambda x: math.exp(-x * x), LINE, math.sqrt(math.pi)),
    (lambda x: 1.0 / (1.0 + x * x), LINE, math.pi),
    (lambda x: math.exp(-abs(x)), LINE, 2.0),
    (lambda x: x * x * math.exp(-x * x / 2.0) / math.sqrt(2 * math.pi), LINE, 1.0),
    (
        lambda x: math.exp(-((x - 2.0) ** 2) / 18.0) / math.sqrt(18.0 * math.pi),
        LINE,
        1.0,
    ),
    # sech(x)^2 / 2 written overflow-safe
    (
        lambda x: 2.0 * math.exp(-2.0 * abs(x)) / (1.0 + math.exp(-2.0 * abs(x))) ** 2,
        LINE,
        1.0,
    ),
    (
        lambda x: math.exp(-((x - 1.0) ** 2) / 8.0) / math.sqrt(8.0 * math.pi),
        SupportSpec.interval(-50.0, 50.0),
        1.0,
    ),
]


class TestIntegrateHonesty:
    def test_twenty_known_integrals(self):
        assert len(KNOWN_INTEGRALS) == 20
        for i, (f, supp, exact) in enumerate(KNOWN_INTEGRALS):
            value, err = integrate(f, supp)
            actual = abs(value - exact)
            budget = max(err, 1e-10 * abs(exact), 1e-12)
            assert actual <= 10.0 * budget, (
                f"integral {i}: value={value!r} exact={exact!r} "
                f"actual error {actual:.3e} vs estimate {err:.3e}"
            )


class TestEndVerdicts:
    """Divergence is read from the integrand's power law at each end of the
    support, before any node is evaluated."""

    @pytest.mark.parametrize("f, supp", [
        (lambda x: 1.0 / (1.0 + x), HALF),        # logarithmic
        (lambda x: x / (1.0 + x), HALF),          # linear
        (lambda x: 1.0, LINE),                    # constant
        (lambda x: math.exp(min(x, 600.0)), HALF),  # explosive
        (lambda x: 1.0 / math.sqrt(1.0 + x * x), LINE),
        (lambda x: 1.0 / x, UNIT),                # a finite end at power -1
        (lambda x: (1.0 - x) ** -1.5, UNIT),
    ], ids=["log", "linear", "constant", "explosive", "line-log", "finite-end", "finite-end-1.5"])
    def test_flags_divergent_ends_without_integrating(self, f, supp):
        seen = []

        def spy(x):
            seen.append(x)
            return f(x)

        assert integrate(spy, supp) == (math.inf, math.inf)
        assert len(seen) <= 6  # three probes at each end

    def test_sign_of_a_divergent_signed_integrand(self):
        assert integrate(lambda x: -1.0 / x, UNIT)[0] == -math.inf

    @pytest.mark.parametrize("f, supp, exact", [
        (ExpFamilyDistribution.gaussian(0.0, 100.0).pdf, LINE, 1.0),
        (lambda x: math.exp(-x), HALF, 1.0),
        (lambda x: 1.0 / (1.0 + x * x), LINE, math.pi),  # heavy but convergent
        (lambda x: math.exp(-x / 64.0) / 64.0, HALF, 1.0),
        (lambda x: 1.0 / math.sqrt(x), UNIT, 2.0),       # a finite end at power -1/2
        (lambda x: x ** -0.99, UNIT, 100.0),
    ], ids=["wide-gaussian", "exponential", "cauchy", "slow-exponential", "sqrt", "power-0.99"])
    def test_passes_convergent_integrands(self, f, supp, exact):
        value, err = integrate(f, supp)
        assert value == pytest.approx(exact, rel=1e-12)
        assert err <= 1e-9 * exact

    @pytest.mark.parametrize("f, supp", [
        (lambda x: math.exp(-x), HALF),
        (lambda x: 1.0 / (1.0 + x * x), LINE),
        (lambda x: math.exp(-((x - 3.0) ** 2)) + 0.1 * math.exp(-abs(x)), LINE),
        (ExpFamilyDistribution.beta(0.6, 2.5).pdf, UNIT),
    ], ids=["exponential", "cauchy", "two-scale", "beta"])
    def test_each_point_integrated_once(self, monkeypatch, f, supp):
        # apart from the end probes and the peak scan, no x is evaluated twice
        from rxent import oracle

        phase, seen = ["nodes"], []

        def tagged(fn, name):
            def run(*args):
                phase[0] = name
                try:
                    return fn(*args)
                finally:
                    phase[0] = "nodes"
            return run

        monkeypatch.setattr(oracle, "_end_law", tagged(oracle._end_law, "probe"))
        monkeypatch.setattr(oracle, "_peak", tagged(oracle._peak, "scan"))

        def spy(x):
            seen.append((phase[0], x))
            return f(x)

        integrate(spy, supp)
        nodes = Counter(x for where, x in seen if where == "nodes")
        assert nodes and max(nodes.values()) == 1

    def test_level_cap_raises_instead_of_returning(self, monkeypatch):
        from rxent import oracle

        monkeypatch.setattr(oracle, "_TOLERANCE", -1.0)  # no two levels ever agree
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: math.exp(-x * x), LINE)

    @pytest.mark.parametrize("end", ["lower", "upper"])
    @pytest.mark.parametrize("power", [-0.5, -0.9, -0.99, -0.999, -1.001, -1.3])
    def test_p_uniform_end_powers(self, end, power):
        # p uniform on (0, 1) and q = Beta(a, b) at alpha = 1/2: the integrand
        # q^(-1/2) has the power t (a - 1) at 0 and t (b - 1) at 1, t = -1/2
        a, b = (1.0 - 2.0 * power, 2.0) if end == "lower" else (2.0, 1.0 - 2.0 * power)
        q = ExpFamilyDistribution.beta(a, b)
        value = cross_entropy_numeric(UNIT, 0.5, q_logpdf=q.logpdf,
                                      p_logpdf=lambda x: 0.0 if 0.0 < x < 1.0 else -math.inf)
        if power <= -1.0:
            assert value == math.inf
            return
        with mp.workdps(40):
            t = mp.mpf(-0.5)
            want = 2 * (mp.log(mp.beta(1 + t * (a - 1), 1 + t * (b - 1))) - t * mp.log(mp.beta(a, b)))
        rel = 5e-9 if (end, power) == ("upper", -0.999) else 1e-9
        assert value == pytest.approx(float(want), rel=rel)


class TestCrossEntropyNumeric:
    @pytest.mark.parametrize("a", [0.5, 2.0, 3.0, "one"])
    def test_matches_power_integral(self, a):
        # against itself the cross-entropy is the order-alpha entropy,
        # h_alpha = (1/2) ln(2 pi v) + ln(alpha) / (2 (alpha - 1)), which
        # is (1/2) ln(2 pi e v) at alpha = 1
        v = 1.7
        p = ExpFamilyDistribution.gaussian(0.4, v)
        alpha = AlphaOrder.coerce(a)
        if alpha.is_one:
            exact = 0.5 * math.log(2 * math.pi * math.e * v)
        else:
            exact = 0.5 * math.log(2 * math.pi * v) + math.log(a) / (2 * (a - 1))
        value = cross_entropy_numeric(LINE, alpha, p_logpdf=p.logpdf, q_logpdf=p.logpdf)
        assert abs(value - exact) < 1e-9

    def test_shannon_marker(self):
        p = ExpFamilyDistribution.exponential(2.0)
        q = ExpFamilyDistribution.exponential(3.0)
        # -E_p[ln q] = -ln 3 + 3 E[X] = -ln 3 + 3/2
        value = cross_entropy_numeric(
            HALF, AlphaOrder.one(), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert abs(value - (-math.log(3.0) + 1.5)) < 1e-9

    def test_pdf_by_position_is_a_type_error(self):
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        with pytest.raises(TypeError):
            cross_entropy_numeric(p.pdf, p.pdf, LINE, AlphaOrder(2.0))
        with pytest.raises(TypeError):
            mgf_numeric(p.pdf, LINE, -0.5)

    def test_log_densities_cure_tail_underflow(self):
        # at alpha < 1 a q tail that underflows as a pdf would read as a hard
        # zero and report divergence; the log-density route must not
        p = ExpFamilyDistribution.gaussian(0.3, 1.2)
        q = ExpFamilyDistribution.gaussian(-0.4, 0.8)
        value = cross_entropy_numeric(
            LINE, AlphaOrder(0.5), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert math.isfinite(value)

    def test_divergent_below_one_is_plus_inf(self):
        p = ExpFamilyDistribution.gaussian(0.0, 2.0)
        q = ExpFamilyDistribution.gaussian(0.0, 0.5)
        value = cross_entropy_numeric(
            LINE, AlphaOrder(0.5), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert value == math.inf

    @pytest.mark.parametrize("p, q", [
        (ExpFamilyDistribution.exponential(1.0), ExpFamilyDistribution.exponential(5.0)),
        (ExpFamilyDistribution.gaussian(0.0, 1.0), ExpFamilyDistribution.gaussian(0.0, 0.2)),
    ], ids=["exponential", "gaussian"])
    def test_reference_tail_outgrowing_the_source_diverges(self, p, q):
        # at alpha = 0.7, p q^(alpha - 1) grows like exp(x / 2) or exp(x^2 / 4)
        # where p alone is far below any density cut
        value = cross_entropy_numeric(p.support, AlphaOrder(0.7),
                                      p_logpdf=p.logpdf, q_logpdf=q.logpdf)
        assert value == math.inf

    def test_divergent_above_one_is_minus_inf(self):
        p = ExpFamilyDistribution.beta(0.5, 2.0)
        q = ExpFamilyDistribution.beta(0.3, 2.0)
        value = cross_entropy_numeric(
            UNIT, AlphaOrder(3.0), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert value == -math.inf

    def test_hard_zero_of_reference(self):
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        q = ExpFamilyDistribution.exponential(1.0)  # zero on x < 0
        value = cross_entropy_numeric(
            LINE, AlphaOrder(0.5), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert value == math.inf

    def test_alpha_inf_rejected(self):
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        with pytest.raises(InvalidAlphaError):
            cross_entropy_numeric(LINE, AlphaOrder.inf(), p_logpdf=p.logpdf, q_logpdf=p.logpdf)

    @pytest.mark.parametrize("mu, a", [(mu, a) for mu in (1e100, 1e150, 1e200)
                                       for a in (0.5, 2.0, "one")])
    def test_source_past_the_farthest_node_is_refused(self, mu, a):
        # N(mu, 1) against N(0, 1e300): from 1e100 on p's mass lies beyond
        # the farthest node (2^332), and from 1.9e154 on ln p is -inf at
        # every double the rule reaches; neither is a divergence
        p, q = ExpFamilyDistribution.gaussian(mu, 1.0), ExpFamilyDistribution.gaussian(0.0, 1e300)
        with pytest.raises(NonConvergenceError):
            cross_entropy_numeric(LINE, AlphaOrder.coerce(a), p_logpdf=p.logpdf, q_logpdf=q.logpdf)

    def test_reference_zero_on_the_whole_source_is_still_a_value(self):
        # an empty integral with p's mass in reach: q = 0 wherever p is
        value = cross_entropy_numeric(HALF, AlphaOrder(2.0), p_logpdf=lambda x: -x,
                                      q_logpdf=lambda x: -math.inf)
        assert value == math.inf


class TestMgfNumeric:
    @staticmethod
    def _gaussian_square(mu, v, c, s):
        """Q(s) of (X - c)^2 for X ~ N(mu, v), in closed form."""
        return (mu - c) ** 2 / (1 - 2 * v * s) - 0.5 * math.log1p(-2 * v * s) / s

    @pytest.mark.parametrize("s", [-1e-9, -0.05, -0.3, -2.0])
    def test_centered_square_gaussian(self, s):
        # -0.05 and -0.3 integrate p expm1(s Y) / s, -2.0 integrates p e^(s Y)
        p = ExpFamilyDistribution.gaussian(1.0, 2.0)
        c, mean = 0.5, 2.0 + 0.25
        value = mgf_numeric(LINE, s, c, logpdf=p.logpdf, mean=mean)
        assert value == pytest.approx(self._gaussian_square(1.0, 2.0, c, s), rel=1e-9)

    def test_zero_order_is_the_mean_without_quadrature(self):
        def never(x):
            raise AssertionError("integrated")

        assert mgf_numeric(LINE, 0.0, 0.5, logpdf=never, mean=2.25) == 2.25

    def test_bounded_support_takes_positive_arguments(self):
        # Beta(2, 3) centered at 0: Q(s) of X^2, from its moments by mpmath
        import mpmath as mp

        p = ExpFamilyDistribution.beta(2.0, 3.0)
        with mp.workdps(30):
            want = mp.log(mp.quad(lambda x: 12 * x * (1 - x) ** 2 * mp.exp(0.7 * x * x),
                                  [0, 1])) / mp.mpf(0.7)
        value = mgf_numeric(UNIT, 0.7, 0.0, logpdf=p.logpdf, mean=0.2)
        assert value == pytest.approx(float(want), rel=1e-9)

    def test_positive_argument_needs_a_bounded_support(self):
        p = ExpFamilyDistribution.exponential(1.0)
        with pytest.raises(InvalidParameterError):
            mgf_numeric(HALF, 0.5, 0.0, logpdf=p.logpdf, mean=2.0)


@st.composite
def spd_2x2(draw):
    """A 2x2 covariance with eigenvalues in [0.2, 5] along a random axis."""
    scales = np.array([draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))])
    angle = draw(st.floats(0.0, math.pi))
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    cov = rot @ np.diag(scales) @ rot.T
    return (cov + cov.T) / 2.0


class TestGrid2d:
    def test_pdf_normalization(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        c, k = gaussian_log_form_2d(cov)
        axis = np.linspace(-12, 12, 801)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pdf = np.exp(c - 0.5 * (k[0, 0] * gx * gx + 2.0 * k[0, 1] * gx * gy + k[1, 1] * gy * gy))
        total = np.trapezoid(np.trapezoid(pdf, axis, axis=1), axis)
        assert abs(total - 1.0) < 1e-8

    def test_needs_spd(self):
        with pytest.raises(InvalidParameterError):
            gaussian_log_form_2d(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvalidParameterError):
            gaussian_log_form_2d(-np.eye(2))
        with pytest.raises(InvalidParameterError):
            gaussian_log_form_2d(np.eye(3))
        with pytest.raises(InvalidParameterError):
            gaussian_log_form_2d(np.array([[math.inf, 0.0], [0.0, 1.0]]))

    def test_self_pair_value(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.5]])
        # h_2(f; f) = ln((4 pi)^n/2 sqrt(det)) for n = 2
        det = float(np.linalg.det(cov))
        exact = math.log((4 * math.pi) ** 1.0 * math.sqrt(det))
        value = cross_entropy_grid2d_gaussian(cov, cov, AlphaOrder(2.0))
        assert abs(value - exact) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_closed_form(self, data):
        cov1, cov2 = data.draw(spd_2x2()), data.draw(spd_2x2())
        # k = K_p - t K_q stays positive definite for t below the edge
        edge = 1.0 / max(np.linalg.eigvals(cov1 @ np.linalg.inv(cov2)).real)
        alpha = data.draw(st.one_of(
            st.just("shannon"),
            st.floats(1.05, 10.0),
            # from far below the edge to just inside it
            st.floats(0.05, 0.999).map(lambda f: 1.0 - f * min(edge, 0.95)),
        ))
        exact = cross_entropy_multivariate_gaussian(cov1, cov2, alpha).value
        value = cross_entropy_grid2d_gaussian(cov1, cov2, alpha)
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("cov", [np.eye(2), np.array([[1.0, 0.8], [0.8, 1.0]])])
    def test_zero_valued_pair_stops(self, cov):
        # det cov = (2 pi e)^-2 makes the Shannon self cross-entropy exactly 0
        cov = cov / (2.0 * math.pi * math.e * math.sqrt(np.linalg.det(cov)))
        assert abs(cross_entropy_grid2d_gaussian(cov, cov, "shannon")) < 1e-12

    def test_past_the_edge_is_the_verdict(self, monkeypatch):
        from rxent import oracle

        monkeypatch.setattr(oracle, "_lattice_sums", None)  # no node is evaluated
        cov1 = np.array([[4.0, 0.5], [0.5, 2.0]])
        cov2 = np.array([[1.0, 0.2], [0.2, 0.5]])
        for alpha in (0.6, 0.3, 0.05):
            assert cross_entropy_grid2d_gaussian(cov1, cov2, alpha) == math.inf

    def test_cap_raises_instead_of_looping(self, monkeypatch):
        from rxent import oracle

        sizes = []
        real = oracle._lattice_sums

        def spy(integrand, *lattices):
            sizes.append(max(vs.size for _, vs in lattices))
            return real(integrand, *lattices)

        monkeypatch.setattr(oracle, "_lattice_sums", spy)
        monkeypatch.setattr(oracle, "_GRID_TOLERANCE", -1.0)  # no two levels ever agree
        cov = np.array([[1.0, 0.3], [0.3, 1.5]])
        with pytest.raises(NonConvergenceError):
            cross_entropy_grid2d_gaussian(cov, cov, 2.0)
        assert sizes == [17, 33, 65, 129, 257, 513, 1025]


class TestKinks:
    @pytest.mark.parametrize("supp, kink, want", [
        (LINE, -0.7, 2.0),
        (LINE, 1.3, 2.0),
        (HALF, 1.3, 2.0 - math.exp(-1.3)),
        (HALF, -0.5, math.exp(-0.5)),
        (HALF, -800.0, 0.0),
        (SupportSpec.interval(0.0, 2.0), 0.5, 2.0 - math.exp(-0.5) - math.exp(-1.5)),
    ])
    def test_kink_is_a_piece_end(self, monkeypatch, supp, kink, want):
        from rxent import oracle

        ends, real = [], oracle._Side.__init__

        def spy(side, kind, origin, *args):
            ends.append(origin)
            real(side, kind, origin, *args)

        monkeypatch.setattr(oracle._Side, "__init__", spy)
        value, _ = integrate(lambda x: math.exp(-abs(x - kink)), supp, points=(kink,))
        assert value == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert (kink in ends) == supp.contains(kink)

    def test_peak_split_finds_an_unnamed_kink(self):
        # without points the peak scan lands on the Laplace location
        value, _ = integrate(lambda x: math.exp(-abs(x - 0.37) / 0.2), LINE)
        assert value == pytest.approx(0.4, rel=1e-12)


def _same_family_pair(draw):
    """A same-family pair of scalar members: means in [-20, 20], variances
    and scales in [0.05, 20], Gamma shapes up to 60."""
    family = draw(st.sampled_from(["gaussian", "laplace", "exponential", "gamma", "chi2",
                                   "beta"]))
    scale = st.floats(0.05, 20.0)
    mean = st.floats(-20.0, 20.0)
    shape = st.floats(0.3, 60.0)
    E = ExpFamilyDistribution
    if family == "gaussian":
        return E.gaussian(draw(mean), draw(scale)), E.gaussian(draw(mean), draw(scale))
    if family == "laplace":
        mu = draw(mean)
        return E.laplace(mu, draw(scale)), E.laplace(mu, draw(scale))
    if family == "exponential":
        return E.exponential(1.0 / draw(scale)), E.exponential(1.0 / draw(scale))
    if family == "gamma":
        return E.gamma(draw(shape), draw(scale)), E.gamma(draw(shape), draw(scale))
    if family == "chi2":
        return E.chi_squared(draw(shape)), E.chi_squared(draw(shape))
    return E.beta(draw(shape), draw(shape)), E.beta(draw(shape), draw(shape))


class TestAgainstClosedForms:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_numeric_equals_closed_or_the_same_infinity(self, data):
        p, q = _same_family_pair(data.draw)
        a = data.draw(st.floats(0.3, 5.0))
        closed = cross_entropy_closed(p, q, a).value
        value = cross_entropy_numeric(p.support, a, p_logpdf=p.logpdf, q_logpdf=q.logpdf)
        if math.isinf(closed):
            assert value == closed
        else:
            assert abs(value - closed) <= 1e-9 * max(1.0, abs(closed)), (p, q, a)

    @pytest.mark.parametrize("p, q, a", [
        ("mu=8,var=0.1", "mu=0,var=1", 2.0),
        ("mu=-300,var=0.5", "mu=0,var=1", 0.7),  # integral about e^15883
    ])
    def test_gaussian_pairs_far_apart(self, p, q, a):
        code, out = self._cli(f"--family gaussian --p {p} --q {q} --alpha {a}")
        assert code == 0 and out["oracle"] == pytest.approx(out["value"], rel=1e-9)

    def test_gamma_pair_far_apart(self):
        code, out = self._cli("--family gamma --p k=50,theta=1 --q k=2,theta=1 --alpha 2")
        assert code == 0 and out["oracle"] == pytest.approx(out["value"], rel=1e-9)

    @staticmethod
    def _cli(words):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(f"xent expfam {words} --oracle --format json".split())
        return code, json.loads(out.getvalue())

    def test_integral_below_the_double_range(self):
        # p q^(alpha - 1) peaks near e^-2000: carried as a logarithm, not 0
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        q = ExpFamilyDistribution.gaussian(60.0, 1.0)
        closed = cross_entropy_closed(p, q, 3.0).value
        value = cross_entropy_numeric(LINE, 3.0, p_logpdf=p.logpdf, q_logpdf=q.logpdf)
        assert value == pytest.approx(closed, rel=1e-12)

    def test_log_factor_at_an_end_is_refused_not_misread(self):
        # at alpha = 1, -p ln q near x = 1 is a power times ln(1 - x), below
        # the rounding of x: the error estimate says so, and no number comes back
        p, q = ExpFamilyDistribution.beta(2.0, 0.5), ExpFamilyDistribution.beta(3.0, 2.0)
        try:
            value = cross_entropy_numeric(UNIT, "one", p_logpdf=p.logpdf, q_logpdf=q.logpdf)
        except NonConvergenceError:
            return
        assert value == pytest.approx(cross_entropy_closed(p, q, "one").value, rel=1e-9)


class TestQuadLogMode:
    def test_logarithm_of_the_integral(self):
        value, err = quad(lambda x: -x * x - 5000.0, -math.inf, math.inf, log=True)
        assert value == pytest.approx(0.5 * math.log(math.pi) - 5000.0, rel=1e-15)
        assert 0.0 <= err <= 1e-9

    def test_zero_integrand_is_minus_inf(self):
        assert quad(lambda x: -math.inf, 0.0, 1.0, log=True)[0] == -math.inf

    def test_integrand_infinite_inside_is_the_verdict(self):
        # ln q = -inf on x < 0 at alpha < 1 makes the integrand +inf there
        assert quad(lambda x: math.inf if x < 0.0 else -x * x, -math.inf, math.inf,
                    log=True)[0] == math.inf


    def test_a_mode_the_scan_misses_is_an_error(self):
        # the scan (at 1 and 16) stops e^50 below its best next to 0 and never
        # sees the mode at 11; nodes there rise e^800 above the shift
        with pytest.raises(NonConvergenceError):
            quad(lambda x: max(-x, 800.0 - 1e3 * (x - 11.0) ** 2), 0.0, math.inf, log=True)
