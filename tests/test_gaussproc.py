import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rxent import (
    AlphaOrder,
    ExpFamilyDistribution,
    InvalidAlphaError,
    InvalidParameterError,
    NonConvergenceError,
    NonpositivePsdError,
    NotPositiveDefiniteError,
    StationaryGaussianSpec,
    cross_entropy_closed,
    rate_finite_n,
    rate_spectral,
)
from rxent import linalg
from rxent.gaussproc import autocov_lags, psd, toeplitz_cov
from rxent.linalg import _levinson_logdet

S = StationaryGaussianSpec


class TestSpecConstruction:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            S.white_noise(0.0)
        with pytest.raises(InvalidParameterError):
            S.ar1(1.0)
        with pytest.raises(InvalidParameterError):
            S.from_autocovariance([])
        with pytest.raises(InvalidParameterError):
            S.from_autocovariance([-1.0, 0.2])

    def test_nonpositive_psd_rejected(self):
        # r = (1, 0.9): series density 1 + 1.8 cos(w) goes negative
        with pytest.raises(NonpositivePsdError):
            S.from_autocovariance([1.0, 0.9])

    def test_psd_white(self):
        spec = S.white_noise(2.5)
        w = np.linspace(0, 2 * math.pi, 7)
        assert_allclose(psd(spec, w), 2.5)

    def test_psd_ar1_closed_form(self):
        spec = S.ar1(0.6, 1.0)
        w = np.linspace(0, 2 * math.pi, 9)
        expected = (1 - 0.36) / (1 - 1.2 * np.cos(w) + 0.36)
        assert_allclose(psd(spec, w), expected, rtol=1e-12)

    def test_psd_series_matches_closed_form(self):
        closed = S.ar1(0.6, 1.0)
        series = S.from_autocovariance(1.0 * 0.6 ** np.arange(201))
        w = np.linspace(0, 2 * math.pi, 33)
        assert_allclose(psd(series, w), psd(closed, w), rtol=1e-8)

    def test_toeplitz_values(self):
        spec = S.ar1(0.5, 2.0)
        cov = toeplitz_cov(spec, 3)
        assert_allclose(cov, [[2.0, 1.0, 0.5], [1.0, 2.0, 1.0], [0.5, 1.0, 2.0]])

    def test_toeplitz_pads_zeros_beyond_truncation(self):
        spec = S.from_autocovariance([1.0, 0.3])
        cov = toeplitz_cov(spec, 4)
        assert cov[0, 2] == 0.0 and cov[0, 3] == 0.0

    def test_autocov_immutable(self):
        spec = S.white_noise(1.0)
        with pytest.raises(ValueError):
            spec.autocov[0] = 2.0

    def test_specs_are_plain_data(self):
        # a series holds its lags, an AR(1) its variance and coefficient
        assert [f.name for f in dataclasses.fields(S)] == ["autocov", "rho"]
        for spec, lags, rho in [(S.white_noise(2.5), [2.5], 0.0),
                                (S.from_autocovariance([2.0, 0.8]), [2.0, 0.8], 0.0),
                                (S.ar1(-0.4, 1.5), [1.5], -0.4), (S.ar1(0.0, 1.5), [1.5], 0.0)]:
            assert (spec.autocov.tolist(), spec.rho) == (lags, rho)
            assert type(spec.rho) is float
        assert_allclose(autocov_lags(S(np.array([1.5]), -0.4), 4), 1.5 * (-0.4) ** np.arange(4))

    def test_invalid_data_rejected(self):
        with pytest.raises(InvalidParameterError, match="variance alone"):
            S(np.array([1.0, 0.5]), 0.3)
        for rho in (1.0, -1.0, math.nan):
            with pytest.raises(InvalidParameterError, match="rho"):
                S(np.array([1.0]), rho)
        # the coefficient is checked first, as ar1 always did
        with pytest.raises(InvalidParameterError, match="rho"):
            S.ar1(1.5, math.nan)

    def test_white_noise_levels_equal_the_fft_fill(self):
        # the flat fill of a one-lag series is bit-identical to the FFT of [v, 0]
        from rxent import gaussproc

        for v in (1e-300, 0.3, 1.7, 2.5, 3.0, 1e300):
            white, padded = S.white_noise(v), S.from_autocovariance([v, 0.0])
            for j in range(3):
                assert np.array_equal(gaussproc._level(white, j)[0], gaussproc._level(padded, j)[0])


class TestScaleFree:
    # each kind at unit scale; scaling a process by c scales its density by c
    KINDS = {
        "white": lambda c: S.white_noise(1.7 * c),
        "ar1": lambda c: S.ar1(0.6, 1.3 * c),
        "series": lambda c: S.from_autocovariance(np.array([2.0, 0.8, 0.3]) * c),
    }

    @pytest.mark.parametrize("c", [1e-200, 1e-13, 1e13, 1e200])
    @pytest.mark.parametrize("kx", sorted(KINDS))
    @pytest.mark.parametrize("ky", sorted(KINDS))
    def test_scaling_both_shifts_by_half_log_c(self, kx, ky, c):
        # the density floor is relative to r_0, so units decide nothing
        make_x, make_y = self.KINDS[kx], self.KINDS[ky]
        base = rate_spectral(make_x(1.0), make_y(1.0), [0.5, 1.0, 2.0])
        scaled = rate_spectral(make_x(c), make_y(c), [0.5, 1.0, 2.0])
        for a in (0.5, 2.0):
            base.append(rate_finite_n(make_x(1.0), make_y(1.0), a, 64))
            scaled.append(rate_finite_n(make_x(c), make_y(c), a, 64))
        diverges = {("white", "ar1"), ("ar1", "white"), ("series", "white"), ("series", "ar1")}
        assert math.isinf(base[0]) == ((kx, ky) in diverges)
        for want, got in zip(base, scaled):
            if math.isinf(want):
                assert got == want
            else:
                shifted = want + 0.5 * math.log(c)
                assert abs(got - shifted) <= 1e-12 * max(1.0, abs(shifted))


class TestWhiteNoiseRates:
    def test_self_pair(self):
        w = S.white_noise(1.0)
        assert_allclose(rate_spectral(w, w, 2.0), 1.2655121234846454, rtol=1e-12)

    def test_four_versus_one(self):
        x, y = S.white_noise(4.0), S.white_noise(1.0)
        assert_allclose(rate_spectral(x, y, 2.0), 1.723657489421723, rtol=1e-12)
        assert_allclose(rate_spectral(x, y, 2.0), 0.5 * math.log(10 * math.pi),
                        rtol=1e-12)

    @pytest.mark.parametrize("a", [0.9, 1.5, 2.0, 3.0])
    def test_equals_scalar_gaussian(self, a):
        # iid sequences: the rate is the one-letter cross-entropy
        x, y = S.white_noise(1.7), S.white_noise(0.8)
        scalar = cross_entropy_closed(
            ExpFamilyDistribution.gaussian(0, 1.7),
            ExpFamilyDistribution.gaussian(0, 0.8),
            a,
        )
        assert_allclose(rate_spectral(x, y, a), scalar.value, rtol=1e-10)
        for n in (1, 8, 64):
            assert_allclose(rate_finite_n(x, y, a, n), scalar.value, rtol=1e-10)

    def test_divergence_below_one(self):
        x, y = S.white_noise(4.0), S.white_noise(1.0)
        assert rate_spectral(x, y, 0.5) == math.inf
        assert rate_finite_n(x, y, 0.5, 16) == math.inf

    @pytest.mark.parametrize("rho, v, w", [(0.6, 1.3, 2.0), (-0.95, 0.4, 0.7)])
    @pytest.mark.parametrize("a", [0.99, 3.0, 10.0])
    def test_ar1_against_white_closed_form(self, rho, v, w, a):
        # 1 + t f / w = (A - 2 rho cos) / |1 - rho e^iw|^2 with
        # A = 1 + rho^2 + t v (1 - rho^2) / w; the circle mean of ln(A - B cos)
        # is ln((A + sqrt(A^2 - B^2)) / 2), and of the denominator 0
        t = a - 1.0
        big_a = 1.0 + rho * rho + t * v * (1.0 - rho * rho) / w
        mean = math.log((big_a + math.sqrt(big_a**2 - 4.0 * rho * rho)) / 2.0) / t
        want = 0.5 * math.log(2 * math.pi) + 0.5 * (math.log(w) + mean)
        assert_allclose(rate_spectral(S.ar1(rho, v), S.white_noise(w), a), want, rtol=1e-12)


class TestCorrelatedRates:
    X = S.ar1(0.6, 1.0)
    Y = S.ar1(0.3, 1.5)

    @pytest.mark.parametrize("a", [0.9, 1.5, 2.0, 3.0])
    def test_finite_n_converges_to_spectral(self, a):
        limit = rate_spectral(self.X, self.Y, a)
        assert abs(rate_finite_n(self.X, self.Y, a, 1024) - limit) < 1e-3

    def test_error_shrinks_with_n(self):
        limit = rate_spectral(self.X, self.Y, 2.0)
        errors = [
            abs(rate_finite_n(self.X, self.Y, 2.0, n) - limit)
            for n in (16, 64, 256, 1024)
        ]
        for bigger, smaller in zip(errors, errors[1:]):
            assert smaller <= bigger + 1e-12

    def test_truncated_series_agrees_with_closed_psd(self):
        series_x = S.from_autocovariance(1.0 * 0.6 ** np.arange(201))
        series_y = S.from_autocovariance(1.5 * 0.3 ** np.arange(201))
        assert_allclose(
            rate_spectral(series_x, series_y, 2.0),
            rate_spectral(self.X, self.Y, 2.0),
            rtol=1e-8,
        )

    def test_divergence_when_h_goes_negative(self):
        # h(0) = g(0) - 0.5 f(0) = 1.077... - 2 < 0 at alpha = 1/2
        x = S.ar1(0.6, 1.0)
        y = S.ar1(-0.3, 2.0)
        assert rate_spectral(x, y, 0.5) == math.inf
        assert rate_finite_n(x, y, 0.5, 256) == math.inf

    def test_alpha_markers(self):
        # the spectral rate takes the Shannon limit from its own formula;
        # the finite-n referee and the infinite order reject the markers
        for a in (AlphaOrder.one(), "shannon"):
            assert math.isfinite(rate_spectral(self.X, self.Y, a))
            with pytest.raises(InvalidAlphaError):
                rate_finite_n(self.X, self.Y, a, 16)
        for a in (AlphaOrder.inf(), "inf"):
            with pytest.raises(InvalidAlphaError):
                rate_spectral(self.X, self.Y, a)
            with pytest.raises(InvalidAlphaError):
                rate_finite_n(self.X, self.Y, a, 16)

    def test_symmetric_exactly_at_order_two(self):
        # at alpha = 2 the integrand collapses to ln(f + g)
        forward = rate_spectral(self.X, self.Y, 2.0)
        backward = rate_spectral(self.Y, self.X, 2.0)
        assert_allclose(forward, backward, rtol=1e-12)

    def test_asymmetric_elsewhere(self):
        forward = rate_spectral(self.X, self.Y, 3.0)
        backward = rate_spectral(self.Y, self.X, 3.0)
        assert abs(forward - backward) > 1e-3

    def test_self_rate_below_shifted_reference(self):
        # mismatched reference costs more than the matched one at alpha = 2
        matched = rate_spectral(self.X, self.X, 2.0)
        mismatched = rate_spectral(self.X, self.Y, 2.0)
        assert mismatched > matched


@pytest.fixture
def lagged_spike(monkeypatch):
    """White noise of variance 1 whose lag-100 autocovariance reads 2 in the
    finite-n covariances, so its order-101 Toeplitz matrix is not positive
    definite; no valid spec has such lags, so the column is patched in."""
    from rxent import gaussproc

    spike, lags = S.white_noise(1.0), gaussproc.autocov_lags

    def spiked_lags(spec, n):
        r = lags(spec, n)
        if spec is spike:
            r[100] = 2.0
        return r

    monkeypatch.setattr(gaussproc, "autocov_lags", spiked_lags)
    return spike


class TestFiniteNDivergence:
    def test_below_one_nonpositive_b_is_infinite(self, lagged_spike):
        # B = Cov_Y - 0.5 Cov_X has lag-100 entry -1 against a diagonal of 0.5
        assert rate_finite_n(lagged_spike, S.white_noise(1.0), 0.5, 128) == math.inf

    def test_above_one_nonpositive_b_raises(self, lagged_spike):
        with pytest.raises(NotPositiveDefiniteError):
            rate_finite_n(lagged_spike, S.white_noise(1.0), 2.0, 128)

    def test_nonpositive_reference_raises_below_one(self, lagged_spike):
        with pytest.raises(NotPositiveDefiniteError, match="reference"):
            rate_finite_n(S.white_noise(1.0), lagged_spike, 0.5, 128)


class TestAr1AllLags:
    X = S.ar1(0.99, 1.0)
    Y = S.white_noise(1.0)

    def test_lags_beyond_truncation_are_exact(self):
        r = autocov_lags(self.X, 2048)
        assert_allclose(r, 0.99 ** np.arange(2048), rtol=1e-12)
        assert (self.X.autocov.tolist(), self.X.rho) == ([1.0], 0.99)

    def test_finite_n_error_halves_with_n(self):
        limit = rate_spectral(self.X, self.Y, 2.0)
        errors = [rate_finite_n(self.X, self.Y, 2.0, n) - limit
                  for n in (256, 512, 1024, 2048)]
        assert 2.6e-3 < errors[0] < 2.8e-3
        assert 3.3e-4 < errors[-1] < 3.5e-4
        for bigger, smaller in zip(errors, errors[1:]):
            assert 0.45 < smaller / bigger < 0.55

    def test_order_three_factors(self):
        limit = rate_spectral(self.X, self.Y, 3.0)
        assert abs(rate_finite_n(self.X, self.Y, 3.0, 1024) - limit) < 1e-3


class TestFiniteNStop:
    @pytest.mark.parametrize("x, y", [
        (S.ar1(0.6), S.white_noise(1.0)), (S.ar1(-0.9, 2.0), S.white_noise(0.5)),
        (S.ar1(0.6), S.ar1(0.3, 1.5)), (S.ar1(-0.8, 2.0), S.ar1(0.5)),
    ])
    @pytest.mark.parametrize("a", [1.1, 2.0, 5.0, 8.0])
    def test_ar1_pairs_stop_early(self, x, y, a):
        r_y = autocov_lags(y, 2048)
        for column in (r_y, r_y + (a - 1.0) * autocov_lags(x, 2048)):
            assert _levinson_logdet(column)[1] <= 256

    @pytest.mark.parametrize("a", [0.5, 1.1, 2.0, 5.0])
    def test_near_unit_root_matches_the_full_recursion(self, a, monkeypatch):
        x, y = S.ar1(0.999), S.white_noise(1.0)
        value = rate_finite_n(x, y, a, 2048)
        monkeypatch.setattr(linalg, "_FIRST_CHECK", 4096)  # no check below n - 1
        full = rate_finite_n(x, y, a, 2048)
        assert value == full if math.isinf(full) else abs(value - full) <= 1e-12 * abs(full)


def reference_rate_spectral(x, y, a):
    """The spectral rate with the densities evaluated afresh at every level."""
    previous, n, t = None, 4096, a - 1.0
    while True:
        w = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        ratio = psd(x, w) / psd(y, w)
        if np.min(1.0 + t * ratio) <= 0.0:
            return math.inf
        mean = float(np.mean(np.log(psd(y, w)))) + float(np.log1p(t * ratio).sum()) / t / n
        if previous is not None and abs(mean - previous) <= 1e-10:
            return 0.5 * (math.log(2 * math.pi) + mean)
        previous, n = mean, 2 * n


class TestSpectralGridStore:
    # (source factory, reference, divergence edge 1 - min g/f)
    CASES = {
        "white": (lambda: S.white_noise(4.0), S.white_noise(1.0), 0.75),
        "ar1": (lambda: S.ar1(0.5, 2.0), S.white_noise(1.0), 1.0 - 1.0 / 6.0),
        "csv": (lambda: S.from_autocovariance([2.0, 0.8, 0.3]), S.ar1(-0.4), None),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_reused_spec_equals_fresh_spec(self, kind):
        make, y, edge = self.CASES[kind]
        if edge is None:  # locate the edge from the densities on a fine grid
            w = np.linspace(0.0, 2.0 * math.pi, 1 << 16, endpoint=False)
            edge = 1.0 - float(np.min(psd(y, w) / psd(make(), w)))
        orders = [edge - 0.05, edge - 1e-3, edge + 1e-3, edge + 0.05, 0.3, 1.7, 2.0, 4.5]
        reused = make()
        for a in orders + orders[::-1]:
            value = rate_spectral(reused, y, a)
            assert value == rate_spectral(make(), y, a)
            # the levels' sums are added in another order than one mean
            assert value == pytest.approx(reference_rate_spectral(make(), y, a), rel=1e-15)
        assert math.isinf(rate_spectral(reused, y, edge - 1e-3))
        assert math.isfinite(rate_spectral(reused, y, edge + 1e-3))

    def test_psd_once_per_spec_and_level(self, monkeypatch):
        from rxent import gaussproc

        calls, fill = {}, gaussproc._level_psd

        def counting(spec, j):
            calls[id(spec), j] = calls.get((id(spec), j), 0) + 1
            return fill(spec, j)

        monkeypatch.setattr(gaussproc, "_level_psd", counting)
        x, y = S.from_autocovariance([2.0, 0.8, 0.3]), S.ar1(0.9)
        for a in (0.5, 0.9, 1.5, 2.0, 3.0):
            rate_spectral(x, y, a)
            rate_spectral(y, x, a)
        assert calls and set(calls.values()) == {1}
        # the series spec and the closed-form one each fill levels 0 and 1
        assert {(id(spec), j) for spec in (x, y) for j in (0, 1)} <= set(calls)


def ma_lags(m, seed=0):
    """r_0 = 1 and lags 1..m of the constant size 1/(4m) with random signs:
    they do not decay, and the density stays within 1 +- 1/2."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=m)
    return np.concatenate([[1.0], signs / (4.0 * m)])


class TestSeriesLevels:
    @pytest.mark.parametrize("m", [2, 50, 2048, 2049, 5000])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_fft_level_matches_cosine_series(self, m, j):
        from rxent import gaussproc

        spec = S.from_autocovariance(ma_lags(m))
        nodes = np.linspace(0.0, 2.0 * math.pi, 4096 << j, endpoint=False)
        expected = psd(spec, nodes[1::2] if j else nodes)
        assert_allclose(gaussproc._level(spec, j)[0], expected, rtol=1e-13, atol=0.0)

    def test_folding_wraps_the_grid_several_times(self, monkeypatch):
        # 40 lags on a 16-point grid: lags 8, 16, 24 and 32 fold onto 8 and 0
        from rxent import gaussproc

        monkeypatch.setattr(gaussproc, "_SPECTRAL_GRID", 16)
        spec = S.from_autocovariance(ma_lags(39, seed=1))
        w = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        assert_allclose(gaussproc._level_psd(spec, 0), psd(spec, w), rtol=1e-13, atol=0.0)
        assert_allclose(gaussproc._level_psd(spec, 1), psd(spec, np.linspace(
            0.0, 2.0 * math.pi, 32, endpoint=False)[1::2]), rtol=1e-13, atol=0.0)

    def test_fft_level_exact_where_float_nodes_are_not(self):
        # an MA(5000) density |B|^2 + 1 with lags of size 1/70: the cosine
        # series at float nodes carries the rounding of k w (about 2e-12
        # here), the transform does not; the reference reduces k n mod N in
        # integers before the cosine
        m, size = 5000, 4096
        b = np.random.default_rng(2).standard_normal(m + 1) / math.sqrt(m + 1)
        r = np.correlate(b, b, "full")[m:]
        r[0] += 1.0
        n = np.arange(size)
        expected = r[0] + 2.0 * sum(r[k] * np.cos(2.0 * math.pi * (k * n % size) / size)
                                    for k in range(1, m + 1))
        assert_allclose(S.from_autocovariance(r)._levels[0][0], expected, rtol=1e-13, atol=0.0)


def full_grid_rate(x, y, a, n):
    """The trapezoid rate on the n-point grid, every node evaluated afresh."""
    w = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    f, g = psd(x, w), psd(y, w)
    t = 0.0 if a == "one" else a - 1.0
    body = f / g if t == 0.0 else np.log1p(t * f / g) / t
    return 0.5 * (math.log(2.0 * math.pi) + float(np.mean(np.log(g) + body)))


class TestNestedGrid:
    PAIRS = {
        "ar1-white": (lambda: S.ar1(0.5, 2.0), lambda: S.white_noise(1.0)),
        "csv-ar1": (lambda: S.from_autocovariance([2.0, 0.8, 0.3]), lambda: S.ar1(-0.4)),
        "ar1-ar1": (lambda: S.ar1(0.7), lambda: S.ar1(-0.3, 1.5)),
        # a sharp peak: 3 or 4 levels, and +inf at 0.9
        "sharp-white": (lambda: S.ar1(0.998), lambda: S.white_noise(1.0)),
    }

    @pytest.mark.parametrize("kind", sorted(PAIRS))
    @pytest.mark.parametrize("a", [0.9, "one", 1.5, 3.0, 6.0])
    def test_matches_full_grid_at_accepted_level(self, kind, a):
        make_x, make_y = self.PAIRS[kind]
        x, y = make_x(), make_y()
        value = rate_spectral(x, y, a)
        levels = len(x._levels)  # the accepted level is the last one built
        if value == math.inf:
            assert (kind, a) == ("sharp-white", 0.9)
            return
        assert levels == len(y._levels) >= (3 if kind == "sharp-white" else 2)
        expected = full_grid_rate(make_x(), make_y(), a, 4096 << (levels - 1))
        assert value == pytest.approx(expected, rel=1e-15)

    def test_levels_are_the_full_grid_bit_for_bit(self, monkeypatch):
        from rxent import gaussproc

        nodes = []
        monkeypatch.setattr(gaussproc, "psd", lambda spec, w: nodes.append(w) or psd(spec, w))
        x = S.ar1(0.9)
        for j in range(4):
            gaussproc._level(x, j)
        assert [w.size for w in nodes] == [4096, 4096, 8192, 16384]
        full = np.linspace(0.0, 2.0 * math.pi, 4096 << 3, endpoint=False)
        assert np.array_equal(np.sort(np.concatenate(nodes)), full)

    def test_divergence_between_coarse_nodes(self):
        # f = 1 - 0.5 cos(4096 w) is 0.5 on every level-0 node and 1.5 on every
        # odd node of level 1, so 1 + t f first fails to be positive there
        r = np.zeros(4097)
        r[0], r[4096] = 1.0, -0.25
        x, y = S.from_autocovariance(r), S.white_noise(1.0)
        assert np.all(x._levels[0][0] == 0.5)
        a = 1.0 - 1.0 / 1.5 - 0.01
        assert rate_spectral(x, y, a) == math.inf
        assert np.all(x._levels[1][0] == 1.5)
        assert rate_spectral(x, y, 0.9) == pytest.approx(1.4496036, abs=1e-7)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_finite_where_h_stays_above_zero_by_rounding(self):
        # f = 1 + 0.5 cos w peaks at 1.5 on a node; at t = -0.6666666666666666
        # the exact h = 1 + t f is at least 5.55e-17, and the rate is finite
        # (a 50-digit closed form gives 2.26275812143812), but the grid sign
        # check rounds 1 + t f to 0 there and returns inf
        x = S.from_autocovariance([1.0, 0.25])
        value = rate_spectral(x, S.white_noise(1.0), 1.0 - 1.0 / 1.5)
        assert value == pytest.approx(2.26275812143812, abs=1e-9)

    def test_nonconvergence_message_unchanged(self):
        with pytest.raises(NonConvergenceError) as info:
            rate_spectral(S.ar1(0.6), S.white_noise(1.0), 0.75)
        assert str(info.value) == "spectral integral did not stabilize below 1e-10"
