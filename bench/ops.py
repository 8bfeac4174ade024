"""Execute one benchmark op against the package and record its outcome.

Imported by the worker only after ``import rxent`` has been timed.  An
outcome is a JSON-able list:

* ``["value", v]`` or ``["value", v, method]`` for library calls;
* ``["error", name, [base names...], message]`` for an exception;
* ``["cli", exit_code, stdout, stderr]`` for CLI runs.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys

import numpy as np

import rxent
from rxent import cli
from rxent.support import UNIT_INTERVAL, SupportSpec

# constructor names, looked up at call time so traced runs see the wrappers
_FACTORY = {"gaussian": "gaussian", "exponential": "exponential", "beta": "beta",
            "gamma": "gamma", "chi2": "chi_squared", "laplace": "laplace"}


def _member(family, params):
    return getattr(rxent.ExpFamilyDistribution, _FACTORY[family])(*params)


def prepare(op):
    """Turn the raw numbers of a library op into the arrays it is called with."""
    if op["call"] != "lib":
        return op
    prob = dict(op["problem"])
    t = prob["target"]
    keys = {"discrete": ("p", "q"), "markov": ("P", "Q", "p_init", "q_init")}.get(t, ())
    if t == "expfam" and prob["family"] == "mvgauss":
        keys = ("p", "q")
    for key in keys:
        if prob.get(key) is not None:
            prob[key] = np.array(prob[key], dtype=float)
    if t == "gauss":
        for key in ("x", "y"):
            if prob[key]["kind"] == "acov":
                prob[key] = {**prob[key], "r": np.array(prob[key]["r"], dtype=float)}
    return {**op, "problem": prob}


def _process(proc):
    if proc["kind"] == "white":
        return rxent.StationaryGaussianSpec.white_noise(proc["var"])
    if proc["kind"] == "ar1":
        return rxent.StationaryGaussianSpec.ar1(proc["rho"], proc["var"])
    return rxent.StationaryGaussianSpec.from_autocovariance(proc["r"])


def _lib_value(prob, alpha):
    t = prob["target"]
    if t == "discrete":
        p = rxent.DiscreteDistribution(prob["p"])
        q = rxent.DiscreteDistribution(prob["q"])
        fn = rxent.renyi_cross_entropy if prob["definition"] == "standard" else rxent.alt_cross_entropy
        return fn(p, q, alpha)
    if t == "expfam":
        fam = prob["family"]
        if fam == "mvgauss":
            if prob["route"] == "closed":
                return rxent.cross_entropy_multivariate_gaussian(prob["p"], prob["q"], alpha)
            f1 = rxent.ExpFamilyDistribution.mv_gaussian(prob["p"])
            f2 = rxent.ExpFamilyDistribution.mv_gaussian(prob["q"])
            return rxent.cross_entropy_natural(f1, f2, alpha)
        f1, f2 = _member(fam, prob["p"]), _member(fam, prob["q"])
        fn = rxent.cross_entropy_closed if prob["route"] == "closed" else rxent.cross_entropy_natural
        return fn(f1, f2, alpha)
    if t == "special":
        v = prob["variant"]
        if v == "q-uniform":
            return rxent.cross_entropy_q_uniform(SupportSpec.interval(prob["lower"], prob["upper"]))
        if v == "p-uniform":
            q = rxent.ExpFamilyDistribution.beta(*prob["q"])
            return rxent.cross_entropy_p_uniform(UNIT_INTERVAL, q, alpha)
        p = _member(prob["p_family"], prob["p"])
        if v == "q-exponential":
            return rxent.cross_entropy_q_exponential(rxent.mgf_of(p), prob["rate"], alpha)
        if v == "q-gaussian":
            mgf = rxent.mgf_of_centered_square(p, prob["mean"])
            return rxent.cross_entropy_q_gaussian(mgf, prob["mean"], prob["var"], alpha)
        mgf = rxent.mgf_of_centered_square(p, 0.0)
        return rxent.cross_entropy_q_gaussian(mgf, 0.0, prob["var"], alpha, half_normal=True)
    if t == "markov":
        p = rxent.MarkovSource.of(prob["P"], prob["p_init"])
        q = rxent.MarkovSource.of(prob["Q"], prob["q_init"])
        return rxent.cross_entropy_rate(p, q, alpha)
    if t == "gauss":
        return rxent.rate_spectral(_process(prob["x"]), _process(prob["y"]), alpha)
    raise ValueError(t)


def _error(exc):
    return ["error", type(exc).__name__, [c.__name__ for c in type(exc).__mro__],
            str(exc).splitlines()[0][:160] if str(exc) else ""]


def run_lib(op):
    try:
        res = _lib_value(op["problem"], op["alphas"][0])
    except Exception as exc:  # every exception is an outcome the referee judges
        return _error(exc)
    if isinstance(res, rxent.CrossEntropyResult):
        return ["value", res.value, res.method.value]
    return ["value", float(res)]


def run_cli_inprocess(op):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op["argv"]))
    except Exception as exc:
        return _error(exc)
    return ["cli", code, out.getvalue(), err.getvalue()]


def run_cli_child(op, prefix=None):
    """One ``python -m rxent ...`` process (or ``prefix`` + argv); it inherits
    the worker's environment, which puts ``src`` on PYTHONPATH."""
    cmd = (prefix or [sys.executable, "-m", "rxent"]) + list(op["argv"])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    return ["cli", proc.returncode, proc.stdout, proc.stderr]
