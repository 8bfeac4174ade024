"""Judge recorded outcomes against the independent references.

``expectations(op)`` computes, outside any timed region, what each op must
produce; ``judge(op, exp, outcome)`` returns ``None`` for a correct op or a
one-line reason.  An op fails on a wrong value, a wrong divergence verdict,
an untyped or unexpected exception, or a wrong exit code.
"""

from __future__ import annotations

import json
import math
import re

import ref

LN2 = math.log(2.0)
PRINT_REL = 1e-11  # values print with 12 significant digits

# Defects of the package the referee knows about: (id, description, op-kind
# pattern, failure-reason pattern).  A failure matching one is reported as
# that defect; any other failure makes the run incorrect.  The first seven
# are the ones the ROADMAP lists; the rest were found by this referee and
# belong to ROADMAP items 2-4 (quadrature on production paths, MGF
# reducers at the marker, precision near alpha = 1).
KNOWN_DEFECTS = [
    ("markov_periodic_shannon", "periodic-chain Shannon rate: the n=4096 slope is not the Cesaro average",
     r"markov\.periodic\.K\d+\.one|rate\.markov\.periodic\.one|oracle\.markov\.shannon\.periodic", r""),
    ("markov_unreachable_zero", "zero reference transition in an unreachable state: +inf instead of the finite rate",
     r"markov\.unreachable_zero", r""),
    ("markov_near_one", "Markov rate at alpha = 1 +/- 1e-8: power-iteration ln(lambda) off by ~5e-6",
     r"markov\..*\.near8$", r""),
    ("gauss_sweep_through_one", "gauss sweep whose grid contains 1 aborts",
     r"sweep\.gauss\..*\.through1", r""),
    ("gauss_boundary", "ar1:0.6 vs white:1 at alpha = 0.75 raises NonConvergenceError",
     r"gauss.*\.boundary", r""),
    ("gauss_ar1_drift", "AR(1) rho = 0.99 finite-n oracle drifts (autocovariance cut at lag 200)",
     r"ar1_0\.99", r"^oracle: |^exit 1 \(error: matrix is not positive definite"),
    ("special_laplace_sweep", "special q-gaussian sweep with a Laplace source below 1 aborts",
     r"sweep\.special\.q-gaussian\.laplace\.below1", r""),
    ("production_quadrature_fails", "quadrature on production paths (natural Beta fallback, Beta / chi2 "
     "base expectation, the alpha = 1 Shannon integral, numeric MGFs) raises NonConvergenceError",
     r"expfam\.|special\.", r"NonConvergenceError|^exit 1 \(error: (quadrature error|integral did not)"),
    ("near_one_precision", "near alpha = 1 the closed forms and the natural route lose digits as "
     "1/|1-alpha| (no log1p forms)", r"expfam\.\w+\.(closed|natural)\.near", r"\(err "),
    ("shannon_quadrature_inexact", "alpha = 1 marker of the exponential families: the Shannon quadrature "
     "misses its own tolerance", r"expfam\.\w+\.(closed|natural)\.(one|n\d+)", r"^(alpha=1: )?got .*\(err "),
    ("natural_quadrature_inexact", "natural-route Beta / chi2 base expectation by quadrature misses its "
     "tolerance", r"expfam\.(beta|chi2)\.natural", r"\(err "),
    ("mgf_marker_difference", "MGF reducers at alpha = 1 take a central difference (h = 1e-5) of the MGF",
     r"special\.q-(exponential|gaussian|half-normal)\.\w+\.one", r"\(err "),
    ("numeric_mgf_normalisation", "numeric MGF fails its own M(0) = 1 check (quadrature across the "
     "Laplace kink)", r"special\.q-(gaussian|half-normal)", r"M\(0\) = 1"),
    ("mgf_overflow", "Gaussian centered-square MGF overflows math.exp near the end of its interval",
     r"special\.q-gaussian\.gaussian", r"untyped exception OverflowError"),
    ("markov_small_lambda", "Perron residual test is relative to lambda and rejects tiny eigenvalues",
     r"markov", r"eigenpair residual"),
    ("oracle_quadrature_fails", "quadrature oracle raises NonConvergenceError (endpoint singularities)",
     r"oracle\.(special|expfam)\.|xent\..*\.oracle", r"^exit 1 \(error: (quadrature error|integral did not)"),
    ("oracle_quadrature_inexact", "quadrature oracle misses its own tolerance (across the Laplace kink)",
     r"oracle\.(special|expfam)\.|xent\..*\.oracle", r"^oracle: got .*\(err "),
    ("numeric_mgf_inexact", "numeric MGF by quadrature misses its tolerance",
     r"special\.q-(gaussian|half-normal)\.(laplace|gamma|beta|exponential)", r"\(err "),
]


def known_defect(op, reason):
    """Id of the registered defect a failure matches, or None."""
    for did, _, kinds, why in KNOWN_DEFECTS:
        if re.search(kinds, op["kind"]) and re.search(why, reason):
            return did
    return None


def expectations(op):
    prob = op["problem"]
    if op["call"] == "lib" or op["sweep"]:
        return {"values": [ref.expect_value(prob, a) for a in op["alphas"]]}
    alpha = op["alphas"][0]
    exp = {"values": [ref.expect_value(prob, alpha)]}
    if op["oracle"]:
        exp["oracle"] = ref.expect_oracle(prob, alpha, op["finite_n"])
    return exp


def _fmt(x):
    return f"{x:.12g}"


def check_value(exp, got, scale=1.0, slack=0.0):
    """Compare one number (or error) with an expectation; None when correct."""
    if got[0] == "error":
        name, bases, message = got[1], got[2], got[3]
        if "RenyiError" not in bases:
            return f"untyped exception {name} ({message})"
        if exp["kind"] == "raise" and exp["error"] in bases:
            return None
        if exp.get("accept_error") in bases:
            return None
        return f"unexpected {name} ({message}), expected {describe(exp)}"
    v = got[1] * scale
    if exp["kind"] == "raise":
        return f"got {_fmt(v)}, expected {exp['error']}"
    if exp["kind"] == "diverge":
        want = math.inf * exp["sign"]
        return None if v == want else f"got {_fmt(v)}, expected divergence {want}"
    if not math.isfinite(v):
        return f"got {v}, expected {_fmt(exp['v'])}"
    err = abs(v - exp["v"])
    tol = exp["tol"] + slack * abs(exp["v"])
    return None if err <= tol else f"got {_fmt(v)}, expected {_fmt(exp['v'])} (err {err:.2e} > tol {tol:.2e})"


def describe(exp):
    if exp["kind"] == "value":
        return _fmt(exp["v"])
    if exp["kind"] == "diverge":
        return "+inf" if exp["sign"] > 0 else "-inf"
    return exp["error"]


def _number(tok):
    if isinstance(tok, str):
        return float(tok)
    return float("nan") if tok is None else float(tok)


def parse_cli(op, stdout):
    """Rows of (alpha_text, value, oracle-or-None) printed by the CLI."""
    fmt = op["format"]
    text = stdout.strip()
    if fmt == "json":
        payload = json.loads(text)
        rows = payload if isinstance(payload, list) else [payload]
        return [(r["alpha"], _number(r["value"]),
                 None if r["oracle"] is None else _number(r["oracle"])) for r in rows]
    lines = text.splitlines()
    if op["sweep"]:
        if fmt == "csv":
            lines = lines[1:]
        sep = "," if fmt == "csv" else " "
        return [(a, float(v), None) for a, v in (ln.split(sep) for ln in lines)]
    if fmt == "csv":
        cells = lines[1].split(",")
        return [(cells[0], float(cells[1]), float(cells[2]) if len(cells) > 2 else None)]
    oracle = None
    for ln in lines[1:]:
        if ln.startswith("oracle "):
            oracle = float(ln.split()[1])
    return [(op["alphas"][0], float(lines[0]), oracle)]


def _alpha_matches(printed, want):
    if isinstance(want, str):
        return str(printed) in ("1", "1.0", "inf") if want == "1" else str(printed) == "inf"
    return abs(float(printed) - want) <= 1e-11 * max(1.0, abs(want))


def judge_cli(op, exp, outcome):
    if outcome[0] == "error":
        return f"CLI raised {outcome[1]}"
    _, code, stdout, stderr = outcome
    values = exp["values"]
    refusal = [e for e in values if e["kind"] == "raise"]
    if refusal or (not op["sweep"] and values[0].get("accept_error") and code == 1):
        if code == 1 and stderr.startswith("error:") and not stdout:
            return None
        if refusal:
            return f"exit {code}, expected a typed refusal ({refusal[0]['error']})"
    if code != (2 if any(e["kind"] == "diverge" for e in values) else 0):
        first = stderr.strip().splitlines()[0] if stderr.strip() else ""
        return f"exit {code} ({first})" if code == 1 else f"exit {code}, expected {0 if code == 2 else 2}"
    try:
        rows = parse_cli(op, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output ({exc})"
    if len(rows) != len(values):
        return f"{len(rows)} rows, expected {len(values)}"
    scale = LN2 if op["bits"] else 1.0
    for (a_txt, v, oracle), want_alpha, e in zip(rows, op["alphas"], values):
        if not _alpha_matches(a_txt, want_alpha):
            return f"row alpha {a_txt}, expected {want_alpha}"
        bad = check_value(e, ["value", v], scale, PRINT_REL)
        if bad:
            return f"alpha={a_txt}: {bad}"
        if op["oracle"]:
            if oracle is None:
                return "no oracle printed"
            bad = check_value(exp["oracle"], ["value", oracle], scale, PRINT_REL)
            if bad:
                return f"oracle: {bad}"
    return None


def judge(op, exp, outcome):
    if op["call"] == "lib":
        return check_value(exp["values"][0], outcome)
    return judge_cli(op, exp, outcome)
