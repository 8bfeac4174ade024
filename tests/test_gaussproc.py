import dataclasses
import math
import warnings

import mpmath as mp
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
    RenyiError,
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
                flat, transform = gaussproc._level_psd(white, j), gaussproc._level_psd(padded, j)
                assert np.array_equal(flat, transform)


def aliased_series(top):
    """r_0 = 1 and r_4096 = top: the density 1 + 2 top cos(4096 w) is 1 + 2 top
    on every node of the 4096-point grid, and 1 - 2 |top| at its lowest."""
    r = np.zeros(4097)
    r[0], r[4096] = 1.0, top
    return r


def peaked_series(phi, m):
    """Lags 0..m of the autocovariance of b_j = phi^j, j = 0..m."""
    b = phi ** np.arange(m + 1)
    return np.correlate(b, b, "full")[m:]


def series_minimum(lags, w):
    """The minimum of 2 sum lags[k-1] cos(k w): Newton's method from the
    eight lowest of the nodes w."""
    k = np.arange(1, lags.size + 1)
    values = 2.0 * np.cos(np.outer(w, k)) @ lags
    low = float(values.min())
    for x in w[np.argsort(values)[:8]]:
        for _ in range(30):
            slope, curve = -2.0 * (k * lags) @ np.sin(k * x), -2.0 * (k * k * lags) @ np.cos(k * x)
            if curve <= 0.0:
                break
            x -= slope / curve
        low = min(low, float(2.0 * lags @ np.cos(k * x)))
    return low


def random_series(count=2000, seed=26):
    """Seeded series r_0..r_m, m = 1..8, with lags uniform in (-1, 1).  The
    even ones take r_0 between 1/4 and 5/4 of 2 sum |r_k|; the odd ones take
    r_0 at minus the minimum of 2 sum r_k cos(k w) over a 4096-point grid,
    times 1 +- 10^-7..10^-1, so that the density's minimum lies near 0."""
    rng = np.random.default_rng(seed)
    w = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    for i in range(count):
        lags = rng.uniform(-1.0, 1.0, int(rng.integers(1, 9)))
        if i % 2:
            low = float((2.0 * np.cos(np.outer(w, np.arange(1, lags.size + 1))) @ lags).min())
            r0 = -low * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -1.0))
        else:
            r0 = rng.uniform(0.5, 2.5) * np.abs(lags).sum()
        yield np.concatenate([[r0], lags])


class TestFloorCertificate:
    FLOOR = 1e-12  # relative to r_0

    def test_aliased_series_refused(self):
        # 1 + 1.5 cos(4096 w) reads 2.5 on the 4096-point grid and dips to -0.5
        with pytest.raises(NonpositivePsdError):
            S.from_autocovariance(aliased_series(0.75))

    def test_density_touching_zero_refused(self):
        with pytest.raises(NonpositivePsdError):
            S.from_autocovariance([1.0, 0.5])  # 1 + cos w is 0 at pi

    def test_positive_series_accepted(self):
        S.from_autocovariance([1.0, 0.25])  # 1 + 0.5 cos w >= 0.5
        S.from_autocovariance(aliased_series(-0.25))  # 1 - 0.5 cos(4096 w) >= 0.5

    def test_no_random_series_accepted_below_the_floor(self):
        # r_0 > 2 sum |r_k| bounds the density above r_0 - 2 sum |r_k|; every
        # other accepted series has its 2^18-node minimum above the floor
        size, accepted, check = 1 << 18, 0, []
        for r in random_series():
            try:
                S.from_autocovariance(r)
            except NonpositivePsdError:
                continue
            accepted += 1
            if r[0] - 2.0 * np.abs(r[1:]).sum() <= self.FLOOR * r[0]:
                check.append(r)
        assert 800 < accepted < 1600 and len(check) > 400
        lags = np.zeros((8, len(check)))
        for i, r in enumerate(check):
            lags[:r.size - 1, i] = r[1:]
        n, k = np.arange(size), np.arange(1, 9)
        cosines = 2.0 * np.cos(2.0 * math.pi * (np.outer(n, k) % size) / size)
        low = np.full(len(check), np.inf)
        for start in range(0, size, 1 << 14):
            low = np.minimum(low, (cosines[start:start + (1 << 14)] @ lags).min(axis=0))
        r0 = np.array([r[0] for r in check])
        assert np.all(r0 + low > self.FLOOR * r0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ar1_either_side_of_the_floor(self, sign):
        # the exact minimum v (1 - |rho|) / (1 + |rho|) meets 1e-12 v near
        # |rho| = 1 - 2e-12
        inside, outside = 1.0 - 2e-12 * (1.0 + 1e-3), 1.0 - 2e-12 * (1.0 - 1e-3)
        spec = S.ar1(sign * inside, 2.0)
        assert psd(spec, [0.0, math.pi]).min() > self.FLOOR * 2.0
        with pytest.raises(NonpositivePsdError):
            S.ar1(sign * outside, 2.0)

    def test_construction_builds_no_matrix(self, monkeypatch):
        from rxent import gaussproc

        def refuse(*args, **kwargs):
            raise AssertionError("a covariance matrix was built")

        monkeypatch.setattr(gaussproc, "toeplitz_cov", refuse)
        monkeypatch.setattr(gaussproc, "cholesky_lower", refuse)
        for spec in (S.white_noise(2.0), S.ar1(-0.9, 0.5), S.from_autocovariance([2.0, 0.8, 0.3]),
                     S.from_autocovariance(ma_lags(5000))):
            assert sorted(vars(spec)) == ["autocov", "rho"]

    @pytest.mark.parametrize("c", [1e-300, 1e305, 1e308])
    def test_long_series_at_extreme_scales(self, c):
        # sum k^2 |r_k| is 2.1e6 r_0 here, so the bounds are formed relative to r_0
        S.from_autocovariance(ma_lags(5000) * c)
        with pytest.raises(NonpositivePsdError):
            S.from_autocovariance(aliased_series(0.75) * c)

    def test_peaked_long_series_accepted(self):
        # 0.995^j, j = 0..5000: the density peaks at 400 r_0 and falls to
        # 2.5e-3 r_0 at pi, where the second-derivative bound on 2^17 nodes
        # dips 9.2e-3 r_0 and the Taylor bound 4.4e-5 r_0
        r = peaked_series(0.995, 5000)
        assert psd(S.from_autocovariance(r), math.pi) == pytest.approx(2.506e-3 * r[0], rel=1e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ma1_near_a_unit_root_accepted(self, sign):
        # root 1e-5 from the unit circle: minimum (1 - theta)^2 = 5e-11 r_0, where
        # the second-derivative bound on 2^17 nodes dips 2.9e-10 r_0
        theta = sign / (1.0 + 1e-5)
        spec = S.from_autocovariance([1.0 + theta * theta, theta])
        low = psd(spec, [0.0, math.pi]).min()
        assert 4e-11 * spec.autocov[0] < low < 6e-11 * spec.autocov[0]

    def test_valid_series_within_the_taylor_remainder_not_certified(self):
        # the peaked series with r_0 lowered until its minimum, at pi, is 1e-6 r_0:
        # valid, but the Taylor remainder on 2^17 nodes is 4.4e-5 r_0
        r = peaked_series(0.995, 5000)
        r[0] = (r[0] - psd(S.from_autocovariance(r), math.pi)) / (1.0 - 1e-6)
        assert r[0] + 2.0 * np.dot(r[1:], np.cos(math.pi * np.arange(1, r.size))) > 9e-7 * r[0]
        with pytest.raises(NonpositivePsdError, match="not certified"):
            S.from_autocovariance(r)

    def test_no_series_near_the_floor_accepted_below_it(self):
        # 120 seeded series r_0..r_m, m = 1..40, with r_0 set so that the true
        # minimum (Newton's method from the lowest nodes of a fine grid) is
        # 10^-13.5..10^-8 r_0: at these margins only the Taylor bound decides
        rng = np.random.default_rng(26)
        w = np.linspace(0.0, 2.0 * math.pi, 1 << 14, endpoint=False)
        clear, accepted = 0, 0  # margins above 1e-10, and those accepted
        for _ in range(120):
            m = int(rng.integers(1, 41))
            lags = rng.uniform(-1.0, 1.0, m) / np.arange(1, m + 1) ** rng.uniform(0.0, 2.0)
            low = series_minimum(lags, w)
            margin = 10.0 ** rng.uniform(-13.5, -8.0)
            clear += margin > 1e-10
            try:
                S.from_autocovariance(np.concatenate([[-low / (1.0 - margin)], lags]))
            except NonpositivePsdError:
                continue
            assert margin > self.FLOOR
            accepted += margin > 1e-10
        assert clear > 30 and accepted > 0.9 * clear


class TestAr1Density:
    RHOS = [0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 3e-12]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("a", RHOS)
    def test_extremes(self, a, sign):
        # at w = 0 the density is v (1 + a) / (1 - a) for rho = a > 0 and
        # v (1 - a) / (1 + a) for rho = -a; at w = pi the other way round
        v = 1.7
        top, bottom = v * (1.0 + a) / (1.0 - a), v * (1.0 - a) / (1.0 + a)
        at_zero, at_pi = psd(S.ar1(sign * a, v), [0.0, math.pi])
        assert_allclose(at_zero, top if sign > 0 else bottom, rtol=1e-15)
        if sign > 0:  # for rho < 0 the maximum is at pi, which no double equals
            assert_allclose(at_pi, bottom, rtol=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("a", RHOS)
    def test_matches_40_digits(self, a, sign):
        rho, v = sign * a, 1.7
        w = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 66)
        w[:2] = 0.0, math.pi
        got = psd(S.ar1(rho, v), w)
        with mp.workdps(40):
            r = mp.mpf(rho)
            want = [v * (1 - r * r) / (1 - 2 * r * mp.cos(mp.mpf(x)) + r * r) for x in w]
        assert_allclose(got, np.array(want, dtype=float), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("rho", [0.99999999999, -0.99999999999, 1.0 - 1e-9, -(1.0 - 1e-9)])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_rate_near_unit_root_is_a_value_or_a_typed_error(self, rho, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value = rate_spectral(S.ar1(rho), S.white_noise(1.0), a)
            except RenyiError:
                return
        assert not math.isnan(value)


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
        rate_spectral(x, y, [0.5, 0.9, 1.5, 2.0, 3.0])  # one call fills each level once
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
        assert_allclose(gaussproc._level_psd(spec, j), expected, rtol=1e-13, atol=0.0)

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
        from rxent import gaussproc

        m, size = 5000, 4096
        b = np.random.default_rng(2).standard_normal(m + 1) / math.sqrt(m + 1)
        r = np.correlate(b, b, "full")[m:]
        r[0] += 1.0
        n = np.arange(size)
        expected = r[0] + 2.0 * sum(r[k] * np.cos(2.0 * math.pi * (k * n % size) / size)
                                    for k in range(1, m + 1))
        level = gaussproc._level_psd(S.from_autocovariance(r), 0)
        assert_allclose(level, expected, rtol=1e-13, atol=0.0)


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
    def test_matches_full_grid_at_accepted_level(self, kind, a, monkeypatch):
        from rxent import gaussproc

        make_x, make_y = self.PAIRS[kind]
        x, y = make_x(), make_y()
        built, fill = {x: 0, y: 0}, gaussproc._level_psd
        monkeypatch.setattr(gaussproc, "_level_psd",
                            lambda spec, j: built.update({spec: j + 1}) or fill(spec, j))
        value = rate_spectral(x, y, a)
        levels = built[x]  # the accepted level is the last one built
        if value == math.inf:
            assert (kind, a) == ("sharp-white", 0.9)
            return
        assert levels == built[y] >= (3 if kind == "sharp-white" else 2)
        expected = full_grid_rate(make_x(), make_y(), a, 4096 << (levels - 1))
        assert value == pytest.approx(expected, rel=1e-15)

    def test_levels_are_the_full_grid_bit_for_bit(self, monkeypatch):
        from rxent import gaussproc

        nodes = []
        monkeypatch.setattr(gaussproc, "psd", lambda spec, w: nodes.append(w) or psd(spec, w))
        x = S.ar1(0.9)
        for j in range(4):
            gaussproc._level_psd(x, j)
        assert [w.size for w in nodes] == [4096, 4096, 8192, 16384]
        full = np.linspace(0.0, 2.0 * math.pi, 4096 << 3, endpoint=False)
        assert np.array_equal(np.sort(np.concatenate(nodes)), full)

    def test_divergence_between_coarse_nodes(self):
        # f = 1 - 0.5 cos(4096 w) is 0.5 on every level-0 node and 1.5 on every
        # odd node of level 1, so 1 + t f first fails to be positive there
        from rxent import gaussproc

        r = np.zeros(4097)
        r[0], r[4096] = 1.0, -0.25
        x, y = S.from_autocovariance(r), S.white_noise(1.0)
        assert np.all(gaussproc._level_psd(x, 0) == 0.5)
        a = 1.0 - 1.0 / 1.5 - 0.01
        assert rate_spectral(x, y, a) == math.inf
        assert np.all(gaussproc._level_psd(x, 1) == 1.5)
        assert rate_spectral(x, y, 0.9) == pytest.approx(1.4496036, abs=1e-7)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
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
