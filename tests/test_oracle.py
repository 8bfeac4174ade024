import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from rxent import AlphaOrder, ExpFamilyDistribution, QuadratureSettings
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
    renyi_entropy_numeric,
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
    def test_matches_power_integral(self):
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        value = cross_entropy_numeric(p.pdf, p.pdf, LINE, AlphaOrder(2.0))
        assert abs(value - 0.5 * math.log(4 * math.pi)) < 1e-9

    def test_shannon_marker(self):
        p = ExpFamilyDistribution.exponential(2.0)
        q = ExpFamilyDistribution.exponential(3.0)
        # -E_p[ln q] = -ln 3 + 3 E[X] = -ln 3 + 3/2
        value = cross_entropy_numeric(
            p.pdf, q.pdf, HALF, AlphaOrder.one(), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert abs(value - (-math.log(3.0) + 1.5)) < 1e-9

    def test_log_density_route_matches(self):
        # pdfs alone are read through their logarithms; above alpha = 1 a q
        # tail that underflows contributes nothing, so both routes agree
        p = ExpFamilyDistribution.gamma(2.5, 1.2)
        q = ExpFamilyDistribution.gamma(3.0, 0.8)
        for alpha in (AlphaOrder(1.5), AlphaOrder(3.0)):
            plain = cross_entropy_numeric(p.pdf, q.pdf, HALF, alpha)
            logged = cross_entropy_numeric(
                p.pdf, q.pdf, HALF, alpha, p_logpdf=p.logpdf, q_logpdf=q.logpdf
            )
            assert abs(plain - logged) < 1e-9

    def test_log_densities_cure_tail_underflow(self):
        # at alpha < 1 the raw-pdf route mistakes q's tail underflow for a
        # hard zero and reports divergence; the log route must not
        p = ExpFamilyDistribution.gaussian(0.3, 1.2)
        q = ExpFamilyDistribution.gaussian(-0.4, 0.8)
        value = cross_entropy_numeric(
            p.pdf, q.pdf, LINE, AlphaOrder(0.5), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert math.isfinite(value)

    def test_divergent_below_one_is_plus_inf(self):
        p = ExpFamilyDistribution.gaussian(0.0, 2.0)
        q = ExpFamilyDistribution.gaussian(0.0, 0.5)
        value = cross_entropy_numeric(
            p.pdf, q.pdf, LINE, AlphaOrder(0.5), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert value == math.inf

    @pytest.mark.parametrize("p, q", [
        (ExpFamilyDistribution.exponential(1.0), ExpFamilyDistribution.exponential(5.0)),
        (ExpFamilyDistribution.gaussian(0.0, 1.0), ExpFamilyDistribution.gaussian(0.0, 0.2)),
    ], ids=["exponential", "gaussian"])
    @pytest.mark.parametrize("logs", [True, False], ids=["logpdf", "pdf"])
    def test_reference_tail_outgrowing_the_source_diverges(self, p, q, logs):
        # at alpha = 0.7, p q^(alpha - 1) grows like exp(x / 2) or exp(x^2 / 4)
        # where p alone is far below any density cut
        extra = {"p_logpdf": p.logpdf, "q_logpdf": q.logpdf} if logs else {}
        value = cross_entropy_numeric(p.pdf, q.pdf, p.support, AlphaOrder(0.7), **extra)
        assert value == math.inf

    def test_divergent_above_one_is_minus_inf(self):
        p = ExpFamilyDistribution.beta(0.5, 2.0)
        q = ExpFamilyDistribution.beta(0.3, 2.0)
        value = cross_entropy_numeric(
            p.pdf, q.pdf, UNIT, AlphaOrder(3.0), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert value == -math.inf

    def test_hard_zero_of_reference(self):
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        q = ExpFamilyDistribution.exponential(1.0)  # zero on x < 0

        def q_pdf(x):
            return q.pdf(x)

        value = cross_entropy_numeric(
            p.pdf, q_pdf, LINE, AlphaOrder(0.5), p_logpdf=p.logpdf, q_logpdf=q.logpdf
        )
        assert value == math.inf

    def test_alpha_inf_rejected(self):
        p = ExpFamilyDistribution.gaussian(0.0, 1.0)
        with pytest.raises(InvalidAlphaError):
            cross_entropy_numeric(p.pdf, p.pdf, LINE, AlphaOrder.inf())


class TestRenyiEntropyNumeric:
    def test_gaussian_orders(self):
        v = 1.7
        p = ExpFamilyDistribution.gaussian(0.4, v)
        # h_alpha = (1/2) ln(2 pi v) + ln(alpha)/(2 (alpha - 1))
        for a in (0.5, 2.0, 3.0):
            exact = 0.5 * math.log(2 * math.pi * v) + math.log(a) / (2 * (a - 1))
            value = renyi_entropy_numeric(p.pdf, LINE, AlphaOrder(a))
            assert abs(value - exact) < 1e-9

    def test_shannon(self):
        p = ExpFamilyDistribution.gaussian(-1.0, 2.0)
        exact = 0.5 * math.log(2 * math.pi * math.e * 2.0)
        value = renyi_entropy_numeric(p.pdf, LINE, AlphaOrder.one())
        assert abs(value - exact) < 1e-9


class TestMgfNumeric:
    def test_exponential_mgf(self):
        p = ExpFamilyDistribution.exponential(2.0)
        for t in (-1.0, -0.5, 0.0, 1.0):
            exact = 2.0 / (2.0 - t)
            assert abs(mgf_numeric(p.pdf, HALF, t) - exact) < 1e-9

    def test_divergent_mgf(self):
        p = ExpFamilyDistribution.exponential(1.0)
        assert mgf_numeric(p.pdf, HALF, 2.0) == math.inf

    def test_centered_square_gaussian(self):
        p = ExpFamilyDistribution.gaussian(1.0, 2.0)
        # E[exp(t (X - c)^2)] = exp(d^2 t / (1 - 2 v t)) / sqrt(1 - 2 v t)
        c, t = 0.5, -0.3
        d2, v = (1.0 - c) ** 2, 2.0
        exact = math.exp(d2 * t / (1 - 2 * v * t)) / math.sqrt(1 - 2 * v * t)
        value = mgf_numeric(p.pdf, LINE, t, square_center=c)
        assert abs(value - exact) < 1e-9


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

    def test_self_pair_value(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.5]])
        # h_2(f; f) = ln((4 pi)^n/2 sqrt(det)) for n = 2
        det = float(np.linalg.det(cov))
        exact = math.log((4 * math.pi) ** 1.0 * math.sqrt(det))
        value = cross_entropy_grid2d_gaussian(cov, cov, AlphaOrder(2.0))
        assert abs(value - exact) < 1e-6


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
