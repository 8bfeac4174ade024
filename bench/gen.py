"""Seeded op generator for the four benchmark workloads.

Every workload is a fixed list of *slots*.  A slot fixes everything that
drives cost (target, route, order region, alphabet size, chain structure,
process kind, block length, grid length); the seed draws only the numbers
inside it (masses, parameters, matrix entries, the exact order).  So two
seeds give different inputs with the same mix, and a run's cost does not
swing with the seed.

Ops are plain JSON-able dicts.  Library ops carry the raw numbers the
worker turns into arrays; CLI ops carry an argv list whose CSV inputs are
written into the run's temporary directory.  Every op also carries the
problem it poses (``problem`` plus its orders), which is all the referee
needs to compute the expected outcome independently.

Known defects of the package stay in the mixes at their natural inputs;
their slots have names the referee's defect registry recognises.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("cli_oneshot", "lib_pointwise", "cli_sweep", "oracle_check")

SPECIAL_COPIES = 4   # lib_pointwise special-reducer slots
# Non-defect slots of the CLI workloads are drawn this many times per cycle:
# with few, long ops the cycle cost and the latency median follow single draws.
SWEEP_COPIES = 3
ORACLE_COPIES = 8

SCALAR_FAMILIES = ("gaussian", "exponential", "beta", "gamma", "chi2", "laplace")
FAMILIES = SCALAR_FAMILIES + ("mvgauss",)
CLI_PARAM_NAMES = {
    "gaussian": ("mu", "var"),
    "exponential": ("lambda",),
    "beta": ("a", "b"),
    "gamma": ("k", "theta"),
    "chi2": ("nu",),
    "laplace": ("mu", "b"),
}


# ---------------------------------------------------------------------------
# small draws

def _logu(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _simplex(rng, k, zeros=0):
    """A probability vector of size k; ``zeros`` masses are exactly 0."""
    v = rng.gamma(0.7, size=k) + 1e-3
    if zeros:
        v[rng.choice(k, size=zeros, replace=False)] = 0.0
    return (v / v.sum()).tolist()


def _order(rng, region):
    """An order token: a float, or the marker strings "1" / "inf"."""
    if region == "below":
        return float(round(rng.uniform(0.15, 0.9), 6))
    if region == "above":
        return float(round(_logu(rng, 1.1, 8.0), 6))
    if region == "one":
        return "1"
    if region == "inf":
        return "inf"
    if region == "near":
        delta = 10.0 ** rng.uniform(-8.9, -4.0)
        return 1.0 + delta if rng.random() < 0.5 else 1.0 - delta
    if region == "near8":
        return 1.0 + 1e-8 if rng.random() < 0.5 else 1.0 - 1e-8
    raise ValueError(region)


def alpha_text(a) -> str:
    return a if isinstance(a, str) else repr(float(a))


def sweep_grid(start: float, stop: float, step: float) -> list:
    """The CLI's inclusive grid start + k step, with points on 1 as the marker."""
    grid, k = [], 0
    while True:
        point = start + k * step
        if point > stop + 1e-12:
            return grid
        grid.append("1" if abs(point - 1.0) <= 1e-9 else point)
        k += 1


# ---------------------------------------------------------------------------
# problems: expfam / special


def _family_params(rng, family):
    if family == "gaussian":
        return [float(round(rng.uniform(-2, 2), 4)), _logu(rng, 0.2, 5.0)]
    if family == "exponential":
        return [_logu(rng, 0.2, 5.0)]
    if family == "beta":
        return [_logu(rng, 0.4, 8.0), _logu(rng, 0.4, 8.0)]
    if family == "gamma":
        return [_logu(rng, 0.4, 8.0), _logu(rng, 0.2, 5.0)]
    if family == "chi2":
        return [_logu(rng, 0.6, 12.0)]
    if family == "laplace":
        return [float(round(rng.uniform(-2, 2), 4)), _logu(rng, 0.2, 5.0)]
    raise ValueError(family)


def _spd(rng, d):
    a = rng.normal(size=(d, d))
    c = a @ a.T / d + 0.4 * np.eye(d)
    c = (c + c.T) / 2.0
    return c.tolist()


def existence_terms(family, p, q):
    """Conditions c + (alpha - 1) d > 0 under which the defining integral of
    a scalar family pair converges, as (c, d) tuples."""
    if family in ("gaussian", "laplace"):
        return [(q[1], p[1])]  # v2 + (a-1) v1 > 0, s2 + (a-1) s1 > 0
    if family == "exponential":
        return [(p[0], q[0])]
    if family == "gamma":
        return [(p[0], q[0] - 1.0), (1.0 / p[1], 1.0 / q[1])]
    if family == "chi2":
        return [(p[0] / 2.0, q[0] / 2.0 - 1.0)]
    if family == "beta":
        return [(p[0], q[0] - 1.0), (p[1], q[1] - 1.0)]
    raise ValueError(family)


def divergence_threshold_below(family, p, q):
    """Largest alpha < 1 at which the pair's integral stops converging, or 0."""
    worst = 0.0
    for c, d in existence_terms(family, p, q):
        if d > 0:
            worst = max(worst, 1.0 - c / d)
    return worst


def _mv_threshold(c1, c2):
    """alpha* below which C1^-1 + (alpha-1) C2^-1 stops being positive definite."""
    mu = np.linalg.eigvals(np.linalg.solve(np.array(c2), np.array(c1))).real.max()
    return 1.0 - 1.0 / mu if mu > 1.0 else 0.0


def expfam_problem(rng, family, route, region):
    """A same-family pair and an order in the given region.

    Regions ``edge_in`` / ``edge_out`` sit just inside / outside the
    existence edge alpha* < 1 (the pair is redrawn until alpha* lies in
    [0.15, 0.85]).
    """
    for _ in range(1000):
        if family == "mvgauss":
            d = int(rng.integers(2, 5))
            p, q = _spd(rng, d), _spd(rng, d)
            if region.startswith("edge"):
                q = (np.array(q) * rng.uniform(0.15, 0.6)).tolist()
            edge = _mv_threshold(p, q)
        else:
            p, q = _family_params(rng, family), _family_params(rng, family)
            if family == "laplace":
                q[0] = p[0]
            edge = divergence_threshold_below(family, p, q)
        if not region.startswith("edge"):
            break
        if 0.15 <= edge <= 0.85:
            break
    else:  # pragma: no cover - the ranges above always admit an edge
        raise RuntimeError(f"no divergence edge drawn for {family}")
    if region == "edge_in":
        alpha = float(round(edge + rng.uniform(0.08, 0.3) * (1.0 - edge), 6))
    elif region == "edge_out":
        alpha = float(round(edge * rng.uniform(0.3, 0.9), 6))
    else:
        alpha = _order(rng, region)
    return {"target": "expfam", "family": family, "p": p, "q": q, "route": route}, alpha


def special_problem(rng, variant, region, p_family=None):
    prob = {"target": "special", "variant": variant}
    if variant == "q-uniform":
        lo = float(round(rng.uniform(-3, 1), 4))
        prob.update(lower=lo, upper=float(round(lo + _logu(rng, 0.2, 10.0), 4)))
        return prob, _order(rng, region)
    if variant == "p-uniform":
        prob["q"] = _family_params(rng, "beta")
        return prob, _order(rng, region)
    prob["p_family"] = p_family
    prob["p"] = _family_params(rng, p_family)
    if variant == "q-exponential":
        prob["rate"] = _logu(rng, 0.2, 3.0)
        alpha = _order(rng, region)
        if region == "below" and p_family in ("exponential", "gamma", "chi2"):
            # keep rate (1 - alpha) inside the source MGF interval
            upper = {"exponential": prob["p"][0], "gamma": 1.0 / prob["p"][-1],
                     "chi2": 0.5}[p_family]
            prob["rate"] = float(upper * rng.uniform(0.2, 0.9))
        return prob, alpha
    if variant == "q-gaussian":
        prob["mean"] = float(round(rng.uniform(-1, 1), 4))
        prob["var"] = _logu(rng, 0.5, 4.0)
        return prob, _order(rng, region)
    if variant == "q-half-normal":
        prob["var"] = _logu(rng, 0.5, 4.0)
        return prob, _order(rng, region)
    raise ValueError(variant)


# ---------------------------------------------------------------------------
# problems: discrete / markov / gauss


def discrete_problem(rng, k, definition, region):
    zeros_q = 0
    if region in ("edge_out", "edge_in"):
        zeros_q = max(1, k // 5)
    p = _simplex(rng, k, zeros=(k // 7 if k >= 7 else 0))
    q = _simplex(rng, k, zeros=0)
    if zeros_q:
        support = [i for i, m in enumerate(p) if m > 0]
        hit = rng.choice(support, size=min(zeros_q, len(support) - 1), replace=False)
        qa = np.array(q)
        qa[hit] = 0.0
        q = (qa / qa.sum()).tolist()
    if region == "edge_out":
        alpha = _order(rng, "below")  # q vanishes on supp p: +inf below 1
    elif region == "edge_in":
        alpha = _order(rng, "above")  # same pair, finite above 1
    else:
        alpha = _order(rng, region)
    return {"target": "discrete", "p": p, "q": q, "definition": definition}, alpha


def _stochastic_rows(rng, mask, shape=0.8):
    """Random rows on a 0/1 pattern, each summing to 1; a larger gamma
    ``shape`` gives rows closer to uniform."""
    m = np.where(mask, rng.gamma(shape, size=mask.shape) + 0.05, 0.0)
    return m / m.sum(axis=1, keepdims=True)


def markov_chain(rng, k, structure):
    """Source transition matrix of a given structure."""
    if structure == "irreducible":
        mask = rng.random((k, k)) < 0.85
        mask |= np.roll(np.eye(k, dtype=bool), 1, axis=1)  # a Hamiltonian cycle
        mask |= np.eye(k, dtype=bool)
    elif structure == "periodic":
        # period 2, unequal group sizes so the uniform start is not stationary
        a = max(1, k // 3)
        groups = np.array([0] * a + [1] * (k - a))
        mask = groups[:, None] != groups[None, :]
    elif structure == "reducible":
        # transient block feeding two closed irreducible classes
        t = max(1, k // 3)
        c1 = max(1, (k - t) // 2)
        mask = np.zeros((k, k), dtype=bool)
        mask[:t, :] = rng.random((t, k)) < 0.5
        mask[:t, t] = True
        mask[:t, t + c1] = True
        mask[:t, :t] = np.triu(mask[:t, :t], 1)  # transient states form no cycle
        for lo, hi in ((t, t + c1), (t + c1, k)):
            mask[lo:hi, lo:hi] = True
    elif structure == "absorbing":
        # states >= k//2 are absorbing; the others drift into them
        mask = np.zeros((k, k), dtype=bool)
        h = max(1, k // 2)
        mask[:h, :] = rng.random((h, k)) < 0.4
        mask[:h, :h] = np.triu(mask[:h, :h], 1)  # transient states form no cycle
        mask[:h, h] = True
        mask[h:, h:] = np.eye(k - h, dtype=bool)
    else:
        raise ValueError(structure)
    # source rows near uniform: no class block is close to reducible, so the
    # power iteration's length, and the op's cost, does not swing with the seed
    return _stochastic_rows(rng, mask, shape=3.0).tolist()


def markov_problem(rng, k, structure):
    p = markov_chain(rng, k, structure)
    q = _stochastic_rows(rng, np.ones((k, k), dtype=bool)).tolist()
    return {"target": "markov", "P": p, "Q": q, "p_init": None, "q_init": None}


def markov_unreachable_problem(rng):
    """State 2 carries no start mass and is never entered; its reference row
    forbids a move the source makes from it."""
    a, b = rng.uniform(0.2, 0.8, size=2)
    p = [[a, 1 - a, 0.0], [b, 1 - b, 0.0], [1.0, 0.0, 0.0]]
    qa, qb = rng.uniform(0.2, 0.8, size=2)
    q = [[qa, 1 - qa, 0.0], [qb, 1 - qb, 0.0], [0.0, 0.5, 0.5]]
    return {"target": "markov", "P": p, "Q": q, "p_init": [0.5, 0.5, 0.0], "q_init": None}


def ma_autocov(rng, length):
    """Autocovariance r_0..r_{length-1} of a minimum-phase moving-average
    filter: a short factor with real roots outside the unit circle times a
    truncated geometric impulse response, so the spectral density stays
    well above zero (>= ~1e-4 r_0)."""
    short = min(3, length - 1)
    b = np.array([1.0])
    for _ in range(short):
        z = rng.uniform(1.5, 3.0) * rng.choice([-1.0, 1.0])
        b = np.convolve(b, [1.0, -1.0 / z])
    if length - 1 > short:
        phi = rng.uniform(0.5, 0.9) * rng.choice([-1.0, 1.0])
        b = np.convolve(b, phi ** np.arange(length - short))
    b = b * _logu(rng, 0.5, 2.0)
    r = np.correlate(b, b, mode="full")[b.size - 1:]
    return [float(x) for x in r]


def gauss_process(rng, kind, size=None):
    if kind == "white":
        return {"kind": "white", "var": float(round(_logu(rng, 0.3, 3.0), 6))}
    if kind == "ar1":
        rho = size if size is not None else float(round(rng.uniform(-0.9, 0.9), 4))
        return {"kind": "ar1", "rho": rho, "var": float(round(_logu(rng, 0.3, 3.0), 6))}
    if kind == "acov":
        return {"kind": "acov", "r": ma_autocov(rng, size)}
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# workload mixes


class _Builder:
    def __init__(self, prefix, tmpdir):
        self.prefix, self.tmpdir, self.ops, self._files = prefix, tmpdir, [], 0

    def add(self, kind, op):
        op["id"] = f"{self.prefix}{len(self.ops):04d}"
        op["kind"] = kind
        self.ops.append(op)
        return op

    def csv(self, rows) -> str:
        """Write a vector (one line) or a matrix (K lines) and return its path."""
        path = os.path.join(self.tmpdir, f"{self.prefix}{self._files:04d}.csv")
        self._files += 1
        with open(path, "w") as fh:
            if rows and isinstance(rows[0], list):
                fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
            else:
                fh.write(",".join(repr(float(v)) for v in rows) + "\n")
        return path

    def autocov_csv(self, r) -> str:
        path = os.path.join(self.tmpdir, f"{self.prefix}{self._files:04d}.csv")
        self._files += 1
        with open(path, "w") as fh:
            fh.writelines(repr(float(v)) + "\n" for v in r)
        return path


def _kv(family, params):
    return ",".join(f"{n}={repr(float(v))}" for n, v in zip(CLI_PARAM_NAMES[family], params))


def _proc_arg(b, proc):
    if proc["kind"] == "white":
        return f"white:{repr(proc['var'])}"
    if proc["kind"] == "ar1":
        return f"ar1:{repr(proc['rho'])},{repr(proc['var'])}"
    return b.autocov_csv(proc["r"])


def cli_args(b, prob):
    """Target words and options that pose ``prob`` to the CLI."""
    t = prob["target"]
    if t == "discrete":
        args = ["discrete", "--p", b.csv(prob["p"]), "--q", b.csv(prob["q"])]
        if prob["definition"] == "alternate":
            args += ["--definition", "alternate"]
        return args
    if t == "expfam":
        fam = prob["family"]
        if fam == "mvgauss":
            args = ["expfam", "--family", "mvgauss", "--p", b.csv(prob["p"]),
                    "--q", b.csv(prob["q"])]
        else:
            args = ["expfam", "--family", fam, "--p", _kv(fam, prob["p"]),
                    "--q", _kv(fam, prob["q"])]
        if prob["route"] == "natural":
            args += ["--method", "natural"]
        return args
    if t == "special":
        v = prob["variant"]
        args = ["special", v]
        if v == "q-uniform":
            return args + ["--lower", repr(prob["lower"]), "--upper", repr(prob["upper"])]
        if v == "p-uniform":
            return args + ["--q", _kv("beta", prob["q"])]
        args += ["--p-family", prob["p_family"], "--p", _kv(prob["p_family"], prob["p"])]
        if v == "q-exponential":
            return args + ["--rate", repr(prob["rate"])]
        if v == "q-gaussian":
            return args + ["--mean", repr(prob["mean"]), "--var", repr(prob["var"])]
        return args + ["--var", repr(prob["var"])]
    if t == "markov":
        args = ["markov", "--p", b.csv(prob["P"]), "--q", b.csv(prob["Q"])]
        if prob["p_init"] is not None:
            args += ["--p-init", b.csv(prob["p_init"])]
        if prob["q_init"] is not None:
            args += ["--q-init", b.csv(prob["q_init"])]
        return args
    if t == "gauss":
        return ["gauss", "--x", _proc_arg(b, prob["x"]), "--y", _proc_arg(b, prob["y"])]
    raise ValueError(t)


def cli_single(b, kind, prob, alpha, fmt=None, bits=False, oracle=False,
               finite_n=None):
    group = "rate" if prob["target"] in ("markov", "gauss") else "xent"
    argv = [group] + cli_args(b, prob) + ["--alpha", alpha_text(alpha)]
    if oracle:
        argv.append("--oracle")
        if finite_n is not None:
            argv += ["--finite-n", str(finite_n)]
    if fmt:
        argv += ["--format", fmt]
    if bits:
        argv.append("--bits")
    return b.add(kind, {"call": "cli", "argv": argv, "problem": prob, "alphas": [alpha],
                        "sweep": False, "oracle": oracle, "finite_n": finite_n,
                        "format": fmt or "plain", "bits": bits})


def cli_sweep_op(b, kind, prob, grid, fmt=None, bits=False):
    start, stop, step = grid
    argv = ["sweep"] + cli_args(b, prob) + ["--alphas", f"{start}:{stop}:{step}"]
    if fmt:
        argv += ["--format", fmt]
    if bits:
        argv.append("--bits")
    return b.add(kind, {"call": "cli", "argv": argv, "problem": prob,
                        "alphas": sweep_grid(start, stop, step), "sweep": True,
                        "oracle": False, "finite_n": None, "format": fmt or "csv",
                        "bits": bits})


def _lib(b, kind, prob, alpha):
    return b.add(kind, {"call": "lib", "problem": prob, "alphas": [alpha]})


def build_lib_pointwise(rng, b):
    # discrete: sizes 3..1e4 x order regions x both definitions
    for k in (3, 10, 100, 1000, 10000):
        for region in ("below", "above", "one", "near", "inf", "edge_out", "edge_in"):
            for definition in ("standard", "alternate"):
                if k == 10000 and definition == "alternate":
                    continue
                prob, a = discrete_problem(rng, k, definition, region)
                _lib(b, f"discrete.{definition}.K{k}.{region}", prob, a)
    # exponential families: 7 families x 2 routes x 6 regions
    for family in FAMILIES:
        for route in ("closed", "natural"):
            for region in ("below", "above", "one", "near", "edge_in", "edge_out"):
                prob, a = expfam_problem(rng, family, route, region)
                _lib(b, f"expfam.{family}.{route}.{region}", prob, a)
    # special-case reducers, four draws per slot: the numeric-MGF ones are
    # the costliest library ops, and the tail latency follows the costliest
    for region in ("below", "above", "one") * SPECIAL_COPIES:
        for variant, fams in (("q-uniform", [None]), ("p-uniform", [None]),
                              ("q-exponential", ["exponential", "gamma", "chi2", "beta"]),
                              ("q-gaussian", ["gaussian", "laplace", "gamma", "beta"]),
                              ("q-half-normal", ["exponential", "gamma"])):
            for fam in fams:
                prob, a = special_problem(rng, variant, region, fam)
                _lib(b, f"special.{variant}.{fam or 'none'}.{region}", prob, a)
    # markov chains: structures x sizes x regions
    chains = [("irreducible", k) for k in (2, 3, 5, 8, 16, 32, 64)]
    chains += [("reducible", k) for k in (4, 8, 16, 32)]
    chains += [("periodic", k) for k in (3, 6, 12)]
    chains += [("absorbing", k) for k in (3, 8, 16, 64)]
    for structure, k in chains:
        for region in ("below", "above", "one"):
            prob = markov_problem(rng, k, structure)
            _lib(b, f"markov.{structure}.K{k}.{region}", prob, _order(rng, region))
    for structure, k in (("irreducible", 2), ("irreducible", 5), ("reducible", 8)):
        prob = markov_problem(rng, k, structure)
        _lib(b, f"markov.{structure}.K{k}.near8", prob, _order(rng, "near8"))
    _lib(b, "markov.unreachable_zero.K3.one", markov_unreachable_problem(rng), "1")
    # gaussian processes: pairs x regions
    pairs = [("white", None, "white", None), ("ar1", None, "white", None),
             ("white", None, "ar1", None), ("ar1", None, "ar1", None),
             ("ar1", 0.99, "white", None), ("ar1", -0.95, "ar1", None),
             ("acov", 5, "white", None), ("acov", 10, "ar1", None),
             ("acov", 25, "acov", 3), ("acov", 50, "white", None)]
    for xk, xs, yk, ys in pairs:
        for region in ("below", "above", "near", "edge_out"):
            if region == "near" and "acov" in (xk, yk):
                continue
            prob = {"target": "gauss", "x": gauss_process(rng, xk, xs),
                    "y": gauss_process(rng, yk, ys)}
            if region == "edge_out":
                a = _gauss_edge_alpha(rng, prob)
            else:
                a = _order(rng, region)
            _lib(b, f"gauss.{xk}{xs or ''}-{yk}{ys or ''}.{region}", prob, a)
    boundary = {"target": "gauss", "x": {"kind": "ar1", "rho": 0.6, "var": 1.0},
                "y": {"kind": "white", "var": 1.0}}
    _lib(b, "gauss.ar1-white.boundary", boundary, 0.75)


def _gauss_edge_alpha(rng, prob):
    """An order below the largest alpha < 1 where g + (alpha-1) f has a zero."""
    w = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    f, g = _psd(prob["x"], w), _psd(prob["y"], w)
    edge = 1.0 - float(np.min(g / f))
    if edge <= 0.05:
        return _order(rng, "below")
    return float(round(edge * rng.uniform(0.3, 0.9), 6))


def _psd(proc, w):
    if proc["kind"] == "white":
        return np.full_like(w, proc["var"])
    if proc["kind"] == "ar1":
        rho, v = proc["rho"], proc["var"]
        return v * (1 - rho * rho) / (1 - 2 * rho * np.cos(w) + rho * rho)
    r = np.array(proc["r"])
    return r[0] + 2.0 * (r[1:, None] * np.cos(np.outer(np.arange(1, r.size), w))).sum(axis=0)


def build_cli_oneshot(rng, b):
    prob, a = discrete_problem(rng, 10, "standard", "above")
    cli_single(b, "xent.discrete", prob, a)
    prob, a = discrete_problem(rng, 100, "standard", "below")
    cli_single(b, "xent.discrete.oracle", prob, a, fmt="json", oracle=True)
    prob, a = expfam_problem(rng, "gaussian", "closed", "above")
    cli_single(b, "xent.expfam.gaussian", prob, a)
    prob, a = expfam_problem(rng, "gamma", "natural", "below")
    cli_single(b, "xent.expfam.gamma.natural", prob, a, fmt="csv")
    prob, a = expfam_problem(rng, "beta", "closed", "above")
    cli_single(b, "xent.expfam.beta.oracle", prob, a, fmt="json", oracle=True)
    prob, a = expfam_problem(rng, "mvgauss", "closed", "above")
    cli_single(b, "xent.expfam.mvgauss", prob, a, bits=True)
    prob, a = special_problem(rng, "q-gaussian", "above", "laplace")
    cli_single(b, "xent.special.q-gaussian.oracle", prob, a, oracle=True)
    prob, a = special_problem(rng, "p-uniform", "below")
    cli_single(b, "xent.special.p-uniform", prob, a, fmt="json", bits=True)
    cli_single(b, "rate.markov", markov_problem(rng, 4, "irreducible"), _order(rng, "above"))
    cli_single(b, "rate.markov.oracle", markov_problem(rng, 3, "irreducible"),
               _order(rng, "below"), fmt="json", oracle=True, finite_n=1000)
    cli_single(b, "rate.markov.periodic.one", markov_problem(rng, 3, "periodic"), "1")
    prob = {"target": "gauss", "x": gauss_process(rng, "ar1"), "y": gauss_process(rng, "white")}
    cli_single(b, "rate.gauss", prob, _order(rng, "above"))
    prob = {"target": "gauss", "x": gauss_process(rng, "ar1", 0.99), "y": gauss_process(rng, "white")}
    cli_single(b, "rate.gauss.ar1_0.99.oracle", prob, _order(rng, "above"), fmt="json",
               oracle=True, finite_n=1024)
    boundary = {"target": "gauss", "x": {"kind": "ar1", "rho": 0.6, "var": 1.0},
                "y": {"kind": "white", "var": 1.0}}
    cli_single(b, "rate.gauss.boundary", boundary, 0.75)
    prob, _ = expfam_problem(rng, "exponential", "closed", "above")
    cli_sweep_op(b, "sweep.expfam.exponential", prob, (0.5, 3.0, 0.5))
    prob, _ = discrete_problem(rng, 8, "standard", "above")
    cli_sweep_op(b, "sweep.discrete", prob, (0.25, 4.0, 0.25), fmt="plain")




def build_cli_sweep(rng, b):
    for _ in range(SWEEP_COPIES):
        _sweep_slots(rng, b)
    prob = {"target": "gauss", "x": gauss_process(rng, "ar1"), "y": gauss_process(rng, "white")}
    cli_sweep_op(b, "sweep.gauss.ar1-white.through1", prob, (0.1, 5.0, 0.1))
    prob, _ = special_problem(rng, "q-gaussian", "above", "laplace")
    cli_sweep_op(b, "sweep.special.q-gaussian.laplace.below1", prob, (0.1, 5.0, 0.1))


def _sweep_slots(rng, b):
    grids = {50: (0.1, 5.0, 0.1), 100: (0.05, 5.0, 0.05), 200: (0.02, 4.0, 0.02)}
    for family, route, n in (("gaussian", "closed", 100), ("gamma", "closed", 200),
                             ("exponential", "closed", 50), ("laplace", "closed", 100),
                             ("beta", "natural", 100), ("chi2", "natural", 50),
                             ("gaussian", "natural", 200), ("mvgauss", "closed", 100)):
        prob, _ = expfam_problem(rng, family, route, "edge_in")
        cli_sweep_op(b, f"sweep.expfam.{family}.{route}.n{n}", prob, grids[n],
                     fmt=("json" if family == "gamma" else None))
    for k, definition, n in ((5, "standard", 200), (50, "alternate", 100), (20, "standard", 50)):
        prob, _ = discrete_problem(rng, k, definition, "edge_in" if k == 20 else "above")
        cli_sweep_op(b, f"sweep.discrete.{definition}.K{k}.n{n}", prob, grids[n],
                     fmt="plain" if k == 50 else None)
    for k, structure, n in ((3, "irreducible", 50), (6, "reducible", 50), (4, "absorbing", 50)):
        cli_sweep_op(b, f"sweep.markov.{structure}.K{k}.n{n}", markov_problem(rng, k, structure),
                     grids[n])
    for xk, xs, yk, n in (("ar1", None, "white", 100), ("acov", 4, "white", 50),
                          ("white", None, "ar1", 200), ("ar1", None, "ar1", 50)):
        prob = {"target": "gauss", "x": gauss_process(rng, xk, xs), "y": gauss_process(rng, yk)}
        cli_sweep_op(b, f"sweep.gauss.{xk}-{yk}.n{n}", prob, (1.05, 1.05 + 0.05 * (n - 1), 0.05))
    prob, _ = special_problem(rng, "q-exponential", "above", "gamma")
    cli_sweep_op(b, "sweep.special.q-exponential.gamma", prob, (1.05, 3.5, 0.05))
    prob, _ = special_problem(rng, "p-uniform", "above")
    cli_sweep_op(b, "sweep.special.p-uniform", prob, grids[100], bits=True)


def build_oracle_check(rng, b):
    for _ in range(ORACLE_COPIES):
        _oracle_slots(rng, b)
    prob = {"target": "gauss", "x": gauss_process(rng, "ar1", 0.99), "y": gauss_process(rng, "white")}
    cli_single(b, "oracle.gauss.ar1_0.99-white.n512", prob, _order(rng, "above"), fmt="json",
               oracle=True, finite_n=512)
    cli_single(b, "oracle.markov.shannon.periodic.K3", markov_problem(rng, 3, "periodic"), "1",
               fmt="json", oracle=True, finite_n=1000)


def _oracle_slots(rng, b):
    for family in SCALAR_FAMILIES:
        prob, a = expfam_problem(rng, family, "closed", "above" if family != "beta" else "below")
        cli_single(b, f"oracle.expfam.{family}", prob, a, fmt="json", oracle=True)
    for variant, fam, region in (("q-exponential", "gamma", "above"),
                                 ("q-gaussian", "gaussian", "below"),
                                 ("q-gaussian", "laplace", "above"),
                                 ("p-uniform", None, "below"),
                                 ("q-half-normal", "exponential", "above")):
        prob, a = special_problem(rng, variant, region, fam)
        cli_single(b, f"oracle.special.{variant}.{fam or 'none'}", prob, a, fmt="json", oracle=True)
    prob = {"target": "expfam", "family": "mvgauss", "p": _spd(rng, 2), "q": _spd(rng, 2),
            "route": "closed"}
    cli_single(b, "oracle.mvgauss.grid2d", prob, _order(rng, "above"), fmt="json", oracle=True)
    for n, (xk, xs, yk) in zip((256, 512, 1024, 2048),
                               (("ar1", None, "white"), ("white", None, "ar1"),
                                ("acov", 4, "white"), ("ar1", None, "ar1"))):
        prob = {"target": "gauss", "x": gauss_process(rng, xk, xs), "y": gauss_process(rng, yk)}
        cli_single(b, f"oracle.gauss.{xk}-{yk}.n{n}", prob, _order(rng, "above"), fmt="json",
                   oracle=True, finite_n=n)
    for n, k, region in ((500, 3, "below"), (1000, 5, "above"), (2000, 8, "above"), (4000, 4, "below")):
        cli_single(b, f"oracle.markov.K{k}.n{n}", markov_problem(rng, k, "irreducible"),
                   _order(rng, region), fmt="json", oracle=True, finite_n=n)
    for k, structure, n in ((4, "irreducible", 2000), (6, "reducible", 4000)):
        cli_single(b, f"oracle.markov.shannon.{structure}.K{k}", markov_problem(rng, k, structure),
                   "1", fmt="json", oracle=True, finite_n=n)


_BUILDERS = {
    "cli_oneshot": ("co", build_cli_oneshot),
    "lib_pointwise": ("lp", build_lib_pointwise),
    "cli_sweep": ("cs", build_cli_sweep),
    "oracle_check": ("oc", build_oracle_check),
}


def build(workload: str, seed: int, tmpdir: str) -> list[dict]:
    """The op list of one workload; CSV inputs are written into ``tmpdir``."""
    prefix, builder = _BUILDERS[workload]
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    b = _Builder(prefix, tmpdir)
    builder(rng, b)
    # one fixed interleaving for every seed, so that any prefix of the
    # cycle has close to the whole mix
    order = np.random.default_rng(WORKLOADS.index(workload)).permutation(len(b.ops))
    return [b.ops[i] for i in order]
