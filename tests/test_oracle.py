import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from rxent import AlphaOrder, ExpFamilyDistribution, QuadratureSettings
from rxent.differential import cross_entropy_multivariate_gaussian
from rxent.errors import (
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
)
from rxent.oracle import (
    DEFAULT_SETTINGS,
    _diverges,
    _nonnegative_integral,
    cross_entropy_grid2d_gaussian,
    cross_entropy_numeric,
    gaussian_log_form_2d,
    integrate,
    mgf_numeric,
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

    def test_settings_validation(self):
        with pytest.raises(InvalidParameterError):
            QuadratureSettings(relative_tolerance=0.0)
        with pytest.raises(InvalidParameterError):
            QuadratureSettings(absolute_tolerance=-1.0)
        with pytest.raises(InvalidParameterError):
            QuadratureSettings(max_subdivisions=2)


class TestDivergenceProbe:
    def test_flags_divergent_tails(self):
        cases = [
            (lambda x: 1.0 / (1.0 + x), HALF),        # logarithmic
            (lambda x: x / (1.0 + x), HALF),          # linear
            (lambda x: 1.0, LINE),                    # constant
            (lambda x: math.exp(min(x, 600.0)), HALF),  # explosive
            (lambda x: 1.0 / math.sqrt(1.0 + x * x), LINE),
        ]
        for f, supp in cases:
            assert _diverges(f, supp, DEFAULT_SETTINGS)
            assert _nonnegative_integral(f, supp, DEFAULT_SETTINGS) == math.inf

    def test_passes_convergent_integrands(self):
        wide = ExpFamilyDistribution.gaussian(0.0, 100.0)  # slow start, no growth run
        cases = [
            (wide.pdf, LINE, 1.0),
            (lambda x: math.exp(-x), HALF, 1.0),
            (lambda x: 1.0 / (1.0 + x * x), LINE, math.pi),  # heavy but convergent
            (lambda x: math.exp(-x / 64.0) / 64.0, HALF, 1.0),
        ]
        for f, supp, exact in cases:
            assert not _diverges(f, supp, DEFAULT_SETTINGS)
            value = _nonnegative_integral(f, supp, DEFAULT_SETTINGS)
            assert abs(value - exact) < 1e-8

    def test_compact_interval_never_probed(self):
        assert not _diverges(lambda x: 1.0 / x, UNIT, DEFAULT_SETTINGS)

    @pytest.mark.parametrize("f, supp, diverges", [
        (lambda x: math.exp(-x), HALF, False),
        (lambda x: 1.0 / (1.0 + x * x), LINE, False),
        (lambda x: 1.0 / (1.0 + x), HALF, True),
    ], ids=["exponential", "cauchy", "log-divergent"])
    def test_each_point_integrated_once(self, monkeypatch, f, supp, diverges):
        # the probe's intervals tile its last window: no region twice
        from rxent import oracle

        seen = []
        real = oracle.quad

        def spy(g, a, b, **options):
            seen.append((a, b))
            return real(g, a, b, **options)

        monkeypatch.setattr(oracle, "quad", spy)
        assert _diverges(f, supp, DEFAULT_SETTINGS) is diverges
        # sorted, each interval starts where the one before it ends
        tiles = sorted(seen)
        assert all(a < b for a, b in tiles)
        assert all(end == start for (_, end), (start, _) in zip(tiles, tiles[1:]))
        width = tiles[-1][1]
        assert math.log2(width) == int(math.log2(width))
        assert tiles[0][0] == (0.0 if supp is HALF else -width)


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
    def test_kink_lands_on_its_folded_point(self, monkeypatch, supp, kink, want):
        from rxent import oracle

        seen = []
        real = oracle.quad

        def spy(f, a, b, **options):
            seen.append(options["points"])
            return real(f, a, b, **options)

        monkeypatch.setattr(oracle, "quad", spy)
        value, _ = integrate(lambda x: math.exp(-abs(x - kink)), supp, points=(kink,))
        assert value == pytest.approx(want, rel=1e-10)
        (points,) = seen
        if supp is HALF and kink < 0:
            assert points is None
            return
        (u,) = points
        back = u if supp.kind.value == "interval" else math.tan(u)
        assert back == pytest.approx(kink, rel=1e-14)
