"""End-to-end verification gate.

Each test states one product guarantee and runs it at its full advertised
tolerance, so ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per guarantee.  The guarantees:

 1. closed forms match an independent quadrature oracle (1e-6 relative)
    and the natural-parameter engine (1e-10) across all six families;
 2. the order-2 differential cross-entropy can be negative;
 3. the order limits are continuous (alpha -> 1) and correct (alpha large);
 4. cross-entropy is non-increasing in the order;
 5. the special-case reducers match quadrature;
 6. the multivariate Gaussian form matches a 2-D grid oracle and reduces
    to the scalar form at n = 1;
 7. Gaussian-process finite-n rates converge to the spectral rate;
 8. Markov rates match long-block evaluations, with exact 2-state anchors;
 9. reducible chains take the largest reachable class eigenvalue;
10. the package is self-contained and installable as advertised.
"""

import importlib
import math
import pathlib
import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rxent
from rxent import (
    AlphaOrder,
    DiscreteDistribution,
    ExpFamilyDistribution,
    MarkovSource,
    Method,
    StationaryGaussianSpec,
    cross_entropy_closed,
    cross_entropy_multivariate_gaussian,
    cross_entropy_natural,
    cross_entropy_numeric,
    cross_entropy_p_uniform,
    cross_entropy_q_exponential,
    cross_entropy_q_gaussian,
    cross_entropy_q_uniform,
    cross_entropy_rate,
    finite_n_cross_entropy,
    mgf_of,
    mgf_of_centered_square,
    perron_eigenvalue,
    rate_finite_n,
    rate_spectral,
    renyi_cross_entropy,
)
from rxent.markov import build_weighted
from rxent.oracle import cross_entropy_grid2d_gaussian
from rxent.support import ALL_REALS, POSITIVE_REALS, SupportSpec, UNIT_INTERVAL

E = ExpFamilyDistribution

ORDERS = [0.5, 0.9, 1.5, 2.0, 3.0, 5.0]

# four parameter pairs per family; cells outside the existence region are
# expected to diverge and are checked for consistent divergence flags
PARAM_GRID = {
    "beta": [
        (E.beta(2.5, 3.5), E.beta(1.5, 2.0)),
        (E.beta(0.7, 1.2), E.beta(2.0, 2.0)),
        (E.beta(2.0, 2.0), E.beta(3.0, 1.5)),
        (E.beta(4.0, 2.0), E.beta(2.5, 3.5)),
    ],
    "chi2": [
        (E.chi_squared(4.0), E.chi_squared(6.0)),
        (E.chi_squared(1.0), E.chi_squared(3.0)),
        (E.chi_squared(7.5), E.chi_squared(2.0)),
        (E.chi_squared(2.0), E.chi_squared(5.0)),
    ],
    "exponential": [
        (E.exponential(2.0), E.exponential(3.0)),
        (E.exponential(1.0), E.exponential(0.5)),
        (E.exponential(0.3), E.exponential(0.7)),
        (E.exponential(5.0), E.exponential(1.0)),
    ],
    "gamma": [
        (E.gamma(2.5, 1.2), E.gamma(1.5, 2.0)),
        (E.gamma(0.8, 3.0), E.gamma(1.2, 1.0)),
        (E.gamma(3.0, 0.5), E.gamma(2.0, 0.8)),
        (E.gamma(1.0, 1.0), E.gamma(2.0, 2.0)),
    ],
    "gaussian": [
        (E.gaussian(0.0, 1.0), E.gaussian(1.0, 1.0)),
        (E.gaussian(0.3, 1.7), E.gaussian(-0.4, 0.8)),
        (E.gaussian(0.0, 4.0), E.gaussian(0.0, 1.0)),
        (E.gaussian(2.0, 0.5), E.gaussian(-1.0, 2.0)),
    ],
    "laplace": [
        (E.laplace(0.0, 1.0), E.laplace(0.0, 1.0)),
        (E.laplace(0.5, 1.5), E.laplace(0.5, 0.7)),
        (E.laplace(0.0, 0.3), E.laplace(0.0, 2.0)),
        (E.laplace(-1.0, 2.0), E.laplace(-1.0, 0.5)),
    ],
}

def quad_value(f1, f2, alpha):
    return cross_entropy_numeric(f1.support, alpha, p_logpdf=f1.logpdf, q_logpdf=f2.logpdf)


def test_criterion_01_closed_forms_match_quadrature_and_engine():
    """Every family closed form agrees with quadrature (1e-6 relative) and
    with the natural-parameter engine (1e-10) on its existence region."""
    start = time.monotonic()
    checked = 0
    for pairs in PARAM_GRID.values():
        for f1, f2 in pairs:
            for a in ORDERS:
                closed = cross_entropy_closed(f1, f2, a)
                natural = cross_entropy_natural(f1, f2, a)
                if closed.diverged:
                    assert natural.diverged, (f1, f2, a)
                    assert closed.value == natural.value
                    continue
                assert natural.method is Method.NATURAL_PARAMS
                assert abs(natural.value - closed.value) <= 1e-10 * max(
                    1.0, abs(closed.value)
                ), (f1, f2, a)
                numeric = quad_value(f1, f2, a)
                assert_allclose(numeric, closed.value, rtol=1e-6, atol=1e-8,
                                err_msg=f"{f1} vs {f2} at alpha={a}")
                checked += 1
    assert checked >= 100
    assert time.monotonic() - start <= 60.0


def test_criterion_02_order_two_cross_entropy_can_be_negative():
    """A sharp Gaussian self pair has negative order-2 cross-entropy."""
    v = 1.0 / (8.0 * math.sqrt(math.pi))
    r = cross_entropy_closed(E.gaussian(0.0, v), E.gaussian(0.0, v), 2.0)
    assert r.value < 0.0
    assert abs(r.value - (0.25 * math.log(math.pi) - 0.5 * math.log(2.0))) <= 1e-6
    assert abs(r.value - (-0.0603911188176226)) <= 1e-6


CONTINUITY_PAIRS = [
    (E.gaussian(0.0, 1.0), E.gaussian(1.0, 1.0)),
    (E.gaussian(0.3, 1.7), E.gaussian(-0.4, 0.8)),
    (E.exponential(2.0), E.exponential(3.0)),
    (E.exponential(1.0), E.exponential(0.5)),
    (E.gamma(2.5, 1.2), E.gamma(1.5, 2.0)),
    (E.gamma(1.0, 1.0), E.gamma(2.0, 2.0)),
    (E.laplace(0.0, 1.0), E.laplace(0.0, 1.0)),
    (E.laplace(0.0, 0.3), E.laplace(0.0, 2.0)),
    (E.chi_squared(4.0), E.chi_squared(6.0)),
    (E.beta(2.0, 2.0), E.beta(3.0, 1.5)),
]


def test_criterion_03_order_limits_are_continuous():
    """Values at alpha = 1 +- 1e-4 sit within 1e-3 of the Shannon limit for
    10 pairs; at alpha = 1000 the discrete value is within 1e-2 of the
    min-entropy limit -ln max q for 10 random pairs."""
    for f1, f2 in CONTINUITY_PAIRS:
        at_one = cross_entropy_closed(f1, f2, AlphaOrder.one()).value
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            value = cross_entropy_closed(f1, f2, a).value
            assert abs(value - at_one) <= 1e-3, (f1, f2, a)

    rng = np.random.default_rng(42)
    for _ in range(10):
        p = DiscreteDistribution(_normalized(rng, 8))
        q = DiscreteDistribution(_normalized(rng, 8))
        big = renyi_cross_entropy(p, q, 1000.0)
        limit = -math.log(float(np.max(q.probs[p.probs > 0])))
        assert abs(big - limit) <= 1e-2


def _normalized(rng, k):
    raw = rng.uniform(0.05, 1.0, k)
    return raw / raw.sum()


def test_criterion_04_cross_entropy_nonincreasing_in_order():
    """Both discrete and differential cross-entropies are non-increasing
    along the order grid for 20 random input pairs (slack 1e-9)."""
    rng = np.random.default_rng(42)
    grid = [0.5, 0.9, AlphaOrder.one(), 1.5, 2.0, 3.0, 5.0]

    for _ in range(10):
        p = DiscreteDistribution(_normalized(rng, 6))
        q = DiscreteDistribution(_normalized(rng, 6))
        values = [renyi_cross_entropy(p, q, a) for a in grid]
        values.append(renyi_cross_entropy(p, q, AlphaOrder.inf()))
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    pairs = []
    for _ in range(4):
        v1 = rng.uniform(0.5, 2.0)
        pairs.append((E.gaussian(rng.uniform(-1, 1), v1),
                      E.gaussian(rng.uniform(-1, 1), v1 * rng.uniform(1.0, 2.0))))
    for _ in range(3):
        lam2 = rng.uniform(0.5, 2.0)
        pairs.append((E.exponential(lam2 * rng.uniform(0.6, 2.0)),
                      E.exponential(lam2)))
    for _ in range(3):
        mu = rng.uniform(-1, 1)
        s1 = rng.uniform(0.5, 2.0)
        pairs.append((E.laplace(mu, s1), E.laplace(mu, s1 * rng.uniform(1.0, 2.0))))
    for f1, f2 in pairs:
        values = [cross_entropy_closed(f1, f2, a).value for a in grid]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9, (f1, f2)


def test_criterion_05_special_case_reducers_match_quadrature():
    """The uniform/exponential/Gaussian/half-normal reducers match direct
    quadrature within 1e-6 on five pairs each; the uniform reference is
    exact, and the uniform-source prefactor has the right sign."""
    # uniform reference: exactly ln |S| for any support length
    for lo, hi in ((0.0, 1.0), (-1.0, 1.0), (2.0, 5.0)):
        assert cross_entropy_q_uniform(SupportSpec.interval(lo, hi)) == math.log(hi - lo)

    def uniform_logpdf(x):
        return 0.0 if 0.0 < x < 1.0 else -math.inf

    # uniform source against Beta references
    for q, a in [
        (E.beta(2.0, 2.0), 3.0),
        (E.beta(2.5, 3.5), 2.0),
        (E.beta(1.5, 1.8), 0.8),
        (E.beta(3.0, 1.5), 2.5),
        (E.beta(2.0, 5.0), 1.5),
    ]:
        value = cross_entropy_p_uniform(UNIT_INTERVAL, q, a).value
        numeric = cross_entropy_numeric(UNIT_INTERVAL, AlphaOrder(a),
                                        p_logpdf=uniform_logpdf, q_logpdf=q.logpdf)
        assert abs(value - numeric) <= 1e-6, (q, a)

    # exponential reference through the source MGF
    for p, rate, a in [
        (E.exponential(2.0), 1.0, 2.0),
        (E.exponential(0.5), 2.0, 3.0),
        (E.gamma(2.5, 1.2), 0.8, 2.0),
        (E.chi_squared(4.0), 0.5, 2.0),
        (E.gamma(1.5, 0.5), 1.0, 3.0),
    ]:
        value = cross_entropy_q_exponential(mgf_of(p), rate, a).value
        numeric = quad_value(p, E.exponential(rate), a)
        assert abs(value - numeric) <= 1e-6, (p, rate, a)

    # Gaussian reference through the centered-square MGF
    for p, mean, var, a in [
        (E.gaussian(0.3, 1.7), 1.0, 2.0, 2.0),
        (E.gaussian(-0.5, 0.6), 0.0, 1.0, 3.0),
        (E.laplace(0.0, 1.0), 0.0, 1.0, 2.0),
        (E.laplace(0.5, 0.8), 0.5, 1.5, 2.0),
        (E.gaussian(0.0, 1.0), 0.0, 1.0, 1.5),
    ]:
        mgf = mgf_of_centered_square(p, mean)
        value = cross_entropy_q_gaussian(mgf, mean, var, a).value
        numeric = quad_value(p, E.gaussian(mean, var), a)
        assert abs(value - numeric) <= 1e-6, (p, mean, var, a)

    # half-normal reference (positive sources only)
    for p, var, a in [
        (E.exponential(1.0), 1.0, 2.0),
        (E.exponential(2.0), 0.5, 2.0),
        (E.chi_squared(3.0), 2.0, 2.0),
        (E.gamma(2.0, 0.5), 1.0, 3.0),
        (E.chi_squared(1.0), 1.0, 3.0),
    ]:
        mgf = mgf_of_centered_square(p, 0.0)
        value = cross_entropy_q_gaussian(mgf, 0.0, var, a, half_normal=True).value
        log_norm = 0.5 * math.log(2.0 / (math.pi * var))

        def hn_logpdf(x, _ln=log_norm, _v=var):
            return _ln - x * x / (2.0 * _v) if x > 0 else -math.inf

        numeric = cross_entropy_numeric(POSITIVE_REALS, AlphaOrder(a),
                                        p_logpdf=p.logpdf, q_logpdf=hn_logpdf)
        assert abs(value - numeric) <= 1e-6, (p, var, a)


COVARIANCE_PAIRS = [
    (np.array([[2.0, 0.6], [0.6, 1.0]]), np.array([[1.5, -0.3], [-0.3, 2.5]])),
    (np.eye(2), np.array([[2.0, 0.5], [0.5, 1.0]])),
    (np.array([[3.0, 1.0], [1.0, 2.0]]), np.array([[1.0, 0.2], [0.2, 0.5]])),
    (np.array([[0.5, 0.1], [0.1, 0.8]]), np.array([[1.0, -0.4], [-0.4, 1.2]])),
    (np.array([[1.0, 0.9], [0.9, 1.0]]), np.array([[1.0, 0.9], [0.9, 1.0]])),
]


def test_criterion_06_multivariate_gaussian_matches_grid_oracle():
    """The covariance form matches 2-D grid quadrature within 1e-4 at
    alpha in {2, 3}, and the 1-D reduction matches the scalar form to
    1e-12."""
    for cov1, cov2 in COVARIANCE_PAIRS:
        for a in (2.0, 3.0):
            value = cross_entropy_multivariate_gaussian(cov1, cov2, a).value
            grid = cross_entropy_grid2d_gaussian(cov1, cov2, a)
            assert abs(value - grid) <= 1e-4, (cov1, cov2, a)
    for v1, v2 in [(1.7, 0.8), (1.0, 1.0), (4.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
        for a in (2.0, 3.0):
            mv = cross_entropy_multivariate_gaussian(
                np.array([[v1]]), np.array([[v2]]), a
            ).value
            scalar = cross_entropy_closed(E.gaussian(0, v1), E.gaussian(0, v2), a).value
            assert abs(mv - scalar) <= 1e-12 * max(1.0, abs(scalar))


PROCESS_PAIRS = [
    (StationaryGaussianSpec.white_noise(1.0), StationaryGaussianSpec.white_noise(1.0)),
    (StationaryGaussianSpec.white_noise(4.0), StationaryGaussianSpec.white_noise(1.0)),
    (StationaryGaussianSpec.ar1(0.6, 1.0), StationaryGaussianSpec.ar1(0.3, 1.5)),
    (StationaryGaussianSpec.ar1(-0.4, 2.0), StationaryGaussianSpec.ar1(0.2, 1.0)),
    (StationaryGaussianSpec.ar1(0.8, 1.0), StationaryGaussianSpec.ar1(0.5, 1.0)),
    (StationaryGaussianSpec.ar1(0.5, 2.0), StationaryGaussianSpec.white_noise(1.5)),
]


def test_criterion_07_gaussian_rate_finite_n_converges():
    """For six process pairs and alpha in {0.5, 2, 3}: the order-2048
    log-determinant rate sits within 2e-3 of the spectral rate, the error
    is non-increasing in n, and divergence verdicts agree."""
    start = time.monotonic()
    for x, y in PROCESS_PAIRS:
        for a in (0.5, 2.0, 3.0):
            limit = rate_spectral(x, y, a)
            if math.isinf(limit):
                assert rate_finite_n(x, y, a, 256) == limit
                continue
            errors = [abs(rate_finite_n(x, y, a, n) - limit)
                      for n in (64, 256, 1024, 2048)]
            assert errors[-1] <= 2e-3, (a, errors)
            for bigger, smaller in zip(errors, errors[1:]):
                assert smaller <= bigger + 1e-12, (a, errors)
    assert time.monotonic() - start <= 120.0


def _random_chain(rng, k):
    raw = rng.uniform(0.1, 1.0, size=(k, k))
    return MarkovSource.of(raw / raw.sum(axis=1, keepdims=True))


def test_criterion_08_markov_rate_matches_finite_blocks():
    """For 50 random irreducible chains (K <= 5) and alpha in {0.5, 2, 3},
    the eigenvalue rate sits within 5e-3 of the exact 4000-block value;
    2-state anchors: uniform pair -> ln 2 and uniform reference -> ln 2 to
    1e-10, and the diagonal pair takes the larger class weight 0.9."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.choice([2, 3, 5]))
        p, q = _random_chain(rng, k), _random_chain(rng, k)
        for a in (0.5, 2.0, 3.0):
            rate = cross_entropy_rate(p, q, a)
            block = finite_n_cross_entropy(p, q, a, 4000)
            assert abs(block - rate) <= 5e-3, (k, a)

    uniform = MarkovSource.of(np.full((2, 2), 0.5))
    assert abs(cross_entropy_rate(uniform, uniform, 2.0) - math.log(2)) <= 1e-10

    p = MarkovSource.of(np.array([[0.9, 0.1], [0.2, 0.8]]))
    for a in (0.5, 2.0, 3.0):
        assert abs(cross_entropy_rate(p, uniform, a) - math.log(2)) <= 1e-10

    identity = MarkovSource.of(np.eye(2))
    weighted = build_weighted(identity, p, 2.0)
    assert_allclose(weighted.entries, np.diag([0.9, 0.8]))
    rate = cross_entropy_rate(identity, p, 2.0)
    assert abs(rate - (-math.log(0.9))) <= 1e-10
    assert abs(finite_n_cross_entropy(identity, p, 2.0, 4000) - rate) <= 1e-3


def _random_block_triangular(rng):
    """Two closed-plus-transient blocks: the first block is closed, the
    second can also step into the first, so the chain is reducible."""
    k1 = int(rng.integers(1, 3))
    k2 = int(rng.integers(1, 3))
    k = k1 + k2
    raw = rng.uniform(0.1, 1.0, size=(k, k))
    raw[:k1, k1:] = 0.0  # the first block never leaves itself
    p = MarkovSource.of(raw / raw.sum(axis=1, keepdims=True))
    q = _random_chain(rng, k)
    return p, q


def test_criterion_09_reducible_chains_match_finite_blocks():
    """For 20 random reducible (block-triangular) sources against strictly
    positive references, the maximal reachable class eigenvalue reproduces
    the 4000-block value within 5e-3."""
    rng = np.random.default_rng(42)
    orders = [2.0, 3.0, 0.5]
    for i in range(20):
        p, q = _random_block_triangular(rng)
        a = orders[i % 3]
        rate = cross_entropy_rate(p, q, a)
        block = finite_n_cross_entropy(p, q, a, 4000)
        assert abs(block - rate) <= 5e-3, (i, a)


FORBIDDEN = re.compile(
    r"\b(paper|lemma|theorem|proposition|appendix|errata|bibliography|"
    r"et al|citation)\b|§|\\cite",
    re.IGNORECASE,
)


def test_criterion_10_package_is_self_contained():
    """The distribution stands alone: public API imports cleanly, the
    console entry point exists, a README documents usage, and neither the
    sources nor the docs lean on external derivations."""
    # public API importable from the package root
    for name in rxent.__all__:
        assert getattr(rxent, name, None) is not None, name
    assert rxent.__version__

    # console entry point resolves to the CLI main
    from importlib.metadata import entry_points

    scripts = entry_points(group="console_scripts")
    (script,) = [ep for ep in scripts if ep.name == "rxent"]
    assert script.load() is importlib.import_module("rxent.cli").main

    # README documents the tool
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = root / "README.md"
    assert readme.is_file() and len(readme.read_text()) > 500

    # no external-derivation references anywhere in the deliverable
    # (this file is skipped: it necessarily spells out the scanned words)
    this_file = pathlib.Path(__file__).resolve()
    files = [readme, *sorted((root / "src").rglob("*.py")),
             *sorted((root / "tests").rglob("*.py"))]
    for path in files:
        if path.resolve() == this_file:
            continue
        text = path.read_text()
        match = FORBIDDEN.search(text)
        assert match is None, f"{path}: {match.group(0)!r}"
