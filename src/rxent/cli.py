"""Command line interface.

Commands
--------
xent discrete       cross-entropy of two finite probability vectors
xent expfam         closed-form cross-entropy inside one exponential family
xent special        reducers: uniform source/reference, exponential,
                    Gaussian, or half-normal reference via MGFs
rate markov         asymptotic rate for a pair of Markov sources
rate gauss          spectral rate for stationary Gaussian processes
sweep <target>      any of the above over an inclusive alpha grid a:b:step

File formats (CSV)
------------------
* probability vector: one line of comma-separated masses
* transition matrix: K lines of K comma-separated probabilities
* autocovariance: one value per line, starting at lag 0

``#`` starts a comment and empty lines are skipped; every row holds as
many values as the first, and a value is an ASCII number (``inf`` and
``nan`` too), the input ``np.loadtxt`` takes.

A command reads, parses and validates its inputs once (CSV files, family
parameters, process specifications), then evaluates them at every order of
its grid, which every target but the closed form of a scalar family and the
special reducers takes in one call; a value that does not parse as a
number, or a file with none, is a usage error.

Values print in nats (``--bits`` divides by ln 2) with 12 significant
digits.  A divergent value prints ``inf`` or ``-inf`` and the process exits
with status 2; usage and computation errors exit with status 1.  Orders:
``--alpha 1`` is the Shannon limit, which every target takes from its own
order-alpha formula, so floats next to 1 are valid orders too;
``--alpha inf`` is the min-entropy limit (discrete only).  Sweep grid
points within rounding of 1 are evaluated at 1, so any grid may step
through it.  ``--oracle`` adds an independent referee value and the gap
between the two, which is 0 where both are the same infinity; the
referee's inputs (for the continuous targets, the two log-densities) are
built only then.  Where the referee fails, the value prints as without
``--oracle``, the referee's error goes to stderr as ``error: oracle: ...``
and the process exits with status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import differential, discrete, gaussproc, markov, oracle
from .alpha import AlphaOrder
from .errors import RenyiError
from .expfam import ExpFamilyDistribution, Family
from .support import SupportSpec, UNIT_INTERVAL


class OutputFormat(Enum):
    PLAIN = "plain"
    JSON = "json"
    CSV = "csv"


@dataclass(frozen=True)
class JobSpec:
    """A fully parsed CLI invocation; ``command`` is "<group> <target>"."""

    command: str
    alphas: tuple[AlphaOrder, ...]
    sweep: bool
    oracle_check: bool
    output_format: OutputFormat
    bits: bool
    options: dict = field(default_factory=dict)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# parsing helpers

# scalar family -> (parameter names, ExpFamilyDistribution constructor).  The
# constructor is looked up by name when called, so a wrapper installed on the
# class after import (the benchmark's tracer) sees the CLI's calls.
_FAMILIES = {
    "gaussian": (("mu", "var"), "gaussian"),
    "exponential": (("lambda",), "exponential"),
    "beta": (("a", "b"), "beta"),
    "gamma": (("k", "theta"), "gamma"),
    "chi2": (("nu",), "chi_squared"),
    "laplace": (("mu", "b"), "laplace"),
}
_FAMILY_ALIASES = {"normal": "gaussian", "exp": "exponential",
                   "chi_squared": "chi2", "chisquared": "chi2"}
_PARAM_ALIASES = {"rate": "lambda", "scale": "b", "s": "b"}


def _number(raw: str, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"cannot parse number {raw!r} for {what}") from None


def _parse_kv(text: str) -> list[tuple[str, float]]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"expected key=value, got {part!r}")
        key, _, raw = part.partition("=")
        out.append((key.strip(), _number(raw, repr(key.strip()))))
    return out


def _make_distribution(family: str, spec: str) -> ExpFamilyDistribution:
    name = _FAMILY_ALIASES.get(family.lower(), family.lower())
    if name not in _FAMILIES:
        raise UsageError(f"unknown scalar family {family!r}")
    names, constructor = _FAMILIES[name]
    pairs = [(_PARAM_ALIASES.get(k, k), v) for k, v in _parse_kv(spec)]
    kv = dict(pairs)
    if len(kv) < len(pairs):  # a key repeated, or given under two aliases
        raise UsageError(f"{name} takes each of {','.join(names)} once; got {spec!r}")
    if set(kv) != set(names):
        raise UsageError(f"{name} takes parameters {','.join(names)}; got {spec!r}")
    return getattr(ExpFamilyDistribution, constructor)(*(kv[n] for n in names))


def _read_rows(path: str, delimiter: str | None) -> list[list[float]]:
    """The rows of numbers of a text file, its cells split at ``delimiter``
    ("," or None for any whitespace); it refuses what ``np.loadtxt`` refuses.

    ``#`` starts a comment, and a line with nothing before it is skipped:
    one that is empty or, between whitespace-separated values, blank
    (between commas a blank line is a row of one empty cell).  Every row
    has as many cells as the first, and every cell is an ASCII number,
    whitespace around it allowed.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        raise FileNotFoundError(f"{path} not found.") from None
    except ValueError as exc:  # bytes that do not decode
        raise UsageError(f"cannot parse {path}: {exc}") from None
    rows = []
    for number, line in enumerate(lines, 1):
        text = line.partition("#")[0]
        if not (text if delimiter else text.strip()):
            continue
        # stripped of all that numpy strips, \x1c-\x1f included, which float() keeps
        cells = [cell.strip() for cell in text.split(delimiter)]
        try:
            if "_" in text or not text.isascii():  # float() alone takes 1_000, other digits
                for cell in cells:
                    if "_" in cell or not cell.isascii():
                        raise ValueError(f"{cell!r} is not an ASCII number without '_'")
            row = [float(cell) for cell in cells]
        except ValueError as exc:
            raise UsageError(f"cannot parse {path}: line {number}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise UsageError(f"cannot parse {path}: line {number} has {len(row)} values, "
                             f"the first row {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise UsageError(f"{path} holds no numbers")
    return rows


def _read_masses(path: str) -> discrete.DiscreteDistribution:
    return discrete.DiscreteDistribution(np.array(_read_rows(path, ",")).reshape(-1))


def _read_matrix(path: str) -> np.ndarray:
    return np.array(_read_rows(path, ","))


def _read_autocov(path: str) -> np.ndarray:
    return np.array(_read_rows(path, None)).reshape(-1)


def _parse_process(text: str, flag: str) -> gaussproc.StationaryGaussianSpec:
    """A process argument: 'white:VAR', 'ar1:RHO[,VAR]', or a CSV path."""
    if text.startswith("white:"):
        return gaussproc.StationaryGaussianSpec.white_noise(_number(text[6:], flag))
    if text.startswith("ar1:"):
        parts = text[4:].split(",")
        if len(parts) > 2:
            raise UsageError(f"{flag} wants ar1:RHO[,VAR], got {text!r}")
        rho = _number(parts[0], flag)
        variance = _number(parts[1], flag) if len(parts) > 1 else 1.0
        return gaussproc.StationaryGaussianSpec.ar1(rho, variance)
    return gaussproc.StationaryGaussianSpec.from_autocovariance(_read_autocov(text))


def _parse_alpha_grid(text: str) -> tuple[AlphaOrder, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--alphas wants start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--alphas wants numbers, got {text!r}") from None
    if step <= 0 or start <= 0 or stop < start:
        raise UsageError("--alphas needs 0 < start <= stop and step > 0")
    grid = []
    k = 0
    while True:
        point = start + k * step
        if point > stop + 1e-12:
            break
        grid.append(AlphaOrder.one() if abs(point - 1.0) <= 1e-9 else AlphaOrder(point))
        k += 1
    if not grid:
        raise UsageError("--alphas produced an empty grid")
    return tuple(grid)


# ---------------------------------------------------------------------------
# parser construction

def _add_common(sp, sweep: bool):
    if sweep:
        sp.add_argument("--alphas", required=True,
                        help="inclusive grid start:stop:step (a point on 1 takes the Shannon limit)")
    else:
        sp.add_argument("--alpha", required=True,
                        help="order: a positive float, '1' (the Shannon limit), or 'inf' "
                             "(discrete only)")
    sp.add_argument("--oracle", action="store_true",
                    help="also print an independent oracle value and the gap")
    sp.add_argument("--format", choices=[f.value for f in OutputFormat],
                    default=None, help="plain (default), json, or csv")
    sp.add_argument("--bits", action="store_true", help="report in bits instead of nats")


def _add_discrete_opts(sp):
    sp.add_argument("--p", required=True, metavar="CSV", help="source masses")
    sp.add_argument("--q", required=True, metavar="CSV", help="reference masses")
    sp.add_argument("--definition", choices=["standard", "alternate"], default="standard",
                    help="alternate adds the divergence-plus-entropy variant")


def _add_expfam_opts(sp):
    sp.add_argument("--family", required=True,
                    help="gaussian, exponential, beta, gamma, chi2, laplace, or mvgauss")
    sp.add_argument("--p", required=True,
                    help="source parameters k=v,... (mvgauss: covariance CSV path)")
    sp.add_argument("--q", required=True,
                    help="reference parameters k=v,... (mvgauss: covariance CSV path)")
    sp.add_argument("--method", choices=["closed", "natural"], default="closed",
                    help="closed form (default) or the natural-parameter engine")


def _add_special_opts(sp):
    sp.add_argument("variant", choices=["q-uniform", "p-uniform", "q-exponential",
                                        "q-gaussian", "q-half-normal"])
    sp.add_argument("--lower", type=float, default=0.0, help="q-uniform support start")
    sp.add_argument("--upper", type=float, default=1.0, help="q-uniform support end")
    sp.add_argument("--q", help="p-uniform: Beta reference parameters a=..,b=..")
    sp.add_argument("--rate", type=float, help="q-exponential: reference rate")
    sp.add_argument("--mean", type=float, default=0.0, help="q-gaussian: reference mean")
    sp.add_argument("--var", type=float, help="q-gaussian / q-half-normal: reference variance")
    sp.add_argument("--p-family", help="source family for the MGF-based variants")
    sp.add_argument("--p", help="source parameters k=v,...")


def _add_markov_opts(sp):
    sp.add_argument("--p", required=True, metavar="CSV", help="source transition matrix")
    sp.add_argument("--q", required=True, metavar="CSV", help="reference transition matrix")
    sp.add_argument("--p-init", metavar="CSV", help="source start masses (default uniform)")
    sp.add_argument("--q-init", metavar="CSV", help="reference start masses (default uniform)")
    sp.add_argument("--finite-n", type=int, default=4000,
                    help="block length for the --oracle finite-n check")


def _add_gauss_opts(sp):
    sp.add_argument("--x", required=True,
                    help="source process: autocovariance CSV, white:VAR, or ar1:RHO[,VAR]")
    sp.add_argument("--y", required=True,
                    help="reference process: autocovariance CSV, white:VAR, or ar1:RHO[,VAR]")
    sp.add_argument("--finite-n", type=int, default=2048,
                    help="matrix order for the --oracle finite-n check")


_GROUPS = {
    "xent": "cross-entropy of a single pair",
    "rate": "asymptotic cross-entropy rates",
    "sweep": "evaluate over an alpha grid",
}


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process (parsing leaves it
    unchanged); ``leaves`` maps each (group, target) to its own parser."""
    parser = _Parser(prog="rxent", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {name: top.add_parser(name, help=text).add_subparsers(dest="target", required=True)
              for name, text in _GROUPS.items()}
    parser.leaves = {}
    for name, target in _TARGETS.items():
        for group in (target.group, "sweep"):
            sp = parser.leaves[group, name] = groups[group].add_parser(name)
            target.add_options(sp)
            _add_common(sp, sweep=group == "sweep")
    return parser


def _namespace(argv: list) -> argparse.Namespace:
    """The parsed options of ``<group> <target> ...``, from that target's
    own parser: what the full parser would hand it, without the two outer
    parses.  Any other argv goes to the full parser, for its help or its
    usage error."""
    parser = build_parser()
    leaf = parser.leaves.get(tuple(argv[:2]))
    if leaf is None:
        return parser.parse_args(argv)
    ns = leaf.parse_args(argv[2:])
    ns.group, ns.target = argv[:2]
    return ns


def parse_args(argv) -> JobSpec:
    ns = _namespace(list(argv))
    sweep = ns.group == "sweep"
    command = f"{_TARGETS[ns.target].group} {ns.target}"
    if sweep:
        alphas = _parse_alpha_grid(ns.alphas)
        if ns.oracle:
            raise UsageError("--oracle applies to single evaluations, not sweeps")
    else:
        try:
            alphas = (AlphaOrder.coerce(ns.alpha),)
        except RenyiError as exc:
            raise UsageError(str(exc)) from None
    fmt = ns.format
    if fmt is None:
        fmt = OutputFormat.CSV if sweep else OutputFormat.PLAIN
    else:
        fmt = OutputFormat(fmt)
    options = {k: v for k, v in vars(ns).items()
               if k not in ("group", "target", "alpha", "alphas", "oracle",
                            "format", "bits")}
    return JobSpec(command=command, alphas=alphas, sweep=sweep,
                   oracle_check=ns.oracle, output_format=fmt, bits=ns.bits,
                   options=options)


# ---------------------------------------------------------------------------
# evaluation

def _discrete_oracle(p, q, alpha: AlphaOrder, definition: str) -> float:
    """Plain-float power sums over the support of p, independent of
    ``discrete.py``: the cross-entropy -S(ln q), or for ``alternate`` the
    divergence S(ln p - ln q) plus the entropy -S(ln p).

    S(x) = ln(sum p e^(t x)) / t with t = alpha - 1, the sum shifted by its
    largest exponent; S is sum p x at alpha = 1 and max x at alpha = inf.
    With ln 0 = -inf this gives the zero rules: q = 0 on the support of p
    sends the cross-entropy to +inf for alpha <= 1 and the divergence to
    +inf for alpha >= 1; otherwise such terms add 0, and disjoint supports
    give +inf.
    """
    pairs = [(a, b) for a, b in zip(p.probs.tolist(), q.probs.tolist()) if a > 0]
    masses = [a for a, _ in pairs]
    log_p = [math.log(a) for a in masses]
    log_q = [math.log(b) if b > 0 else -math.inf for _, b in pairs]
    t = alpha.value - 1.0

    def power_sum(xs):
        if alpha.is_one:
            return math.fsum(a * x for a, x in zip(masses, xs))
        if alpha.is_inf:
            return max(xs)
        zs = [lp + t * x for lp, x in zip(log_p, xs)]
        top = max(zs)
        if math.isinf(top):
            return top / t
        return (top + math.log(math.fsum(math.exp(z - top) for z in zs))) / t

    if definition == "standard":
        return -power_sum(log_q)
    return power_sum([x - y for x, y in zip(log_p, log_q)]) - power_sum(log_p)


def _prepare_discrete(opts):
    p = _read_masses(opts["p"])
    q = _read_masses(opts["q"])
    definition = opts["definition"]
    values = (discrete.renyi_cross_entropy if definition == "standard"
              else discrete.alt_cross_entropy)
    return (lambda alphas: values(p, q, alphas),
            lambda alpha: _discrete_oracle(p, q, alpha, definition))


def _each(value_at):
    """The values over a grid of a function of one order, one call per order."""
    return lambda alphas: [value_at(alpha) for alpha in alphas]


def _result_values(results, *inputs):
    """The values over a grid of a library function that takes the whole
    grid and returns one result per order."""
    return lambda alphas: [r.value for r in results(*inputs, alphas)]


def _with_numeric_oracle(values, log_densities, kinks=()):
    """The grid function ``values`` and the quadrature cross-entropy as the
    referee.

    ``log_densities()`` returns (support, p logpdf, q logpdf); it runs only
    under ``--oracle``, after the value.  ``kinks`` are points where the
    quadrature splits the integral.
    """
    def referee(alpha):
        supp, p_logpdf, q_logpdf = log_densities()
        return oracle.cross_entropy_numeric(supp, alpha, p_logpdf=p_logpdf,
                                            q_logpdf=q_logpdf, points=kinks)

    return values, referee


def _kinks(d: ExpFamilyDistribution) -> tuple[float, ...]:
    """Where the density of d is not smooth inside its support: a Laplace
    location."""
    return (d.params[0],) if d.family is Family.LAPLACE_EQUAL_MEAN else ()


def _prepare_expfam(opts):
    if opts["family"].lower() == "mvgauss":
        cov1, cov2 = _read_matrix(opts["p"]), _read_matrix(opts["q"])

        def referee(alpha):
            return oracle.cross_entropy_grid2d_gaussian(cov1, cov2, alpha)

        if opts["method"] == "closed":
            return _result_values(differential.cross_entropy_multivariate_gaussian,
                                  cov1, cov2), referee
        f1 = ExpFamilyDistribution.mv_gaussian(cov1, name="cov1")
        f2 = ExpFamilyDistribution.mv_gaussian(cov2, name="cov2")
        return _result_values(differential.cross_entropy_natural, f1, f2), referee
    f1 = _make_distribution(opts["family"], opts["p"])
    f2 = _make_distribution(opts["family"], opts["q"])
    if opts["method"] == "natural":
        values = _result_values(differential.cross_entropy_natural, f1, f2)
    else:
        values = _each(lambda alpha: differential.cross_entropy_closed(f1, f2, alpha).value)
    return _with_numeric_oracle(values, lambda: (f1.support, f1.logpdf, f2.logpdf), _kinks(f1))


def _uniform_logpdf(supp: SupportSpec):
    log_density = math.log(1.0 / supp.length)

    def logpdf(x):
        return log_density if supp.lower < x < supp.upper else -math.inf

    return logpdf


def _half_normal_logpdf(variance: float):
    log_norm = 0.5 * (math.log(2.0) - math.log(math.pi) - math.log(variance))

    def logpdf(x):
        if x < 0:
            return -math.inf
        return log_norm - x * x / (2.0 * variance)

    return logpdf


def _require(opts, key, variant):
    value = opts.get(key)
    if value is None:
        raise UsageError(f"{variant} requires --{key.replace('_', '-')}")
    return value


def _prepare_special(opts):
    variant = opts["variant"]
    if variant == "q-uniform":
        supp = SupportSpec.interval(opts["lower"], opts["upper"])
        return _with_numeric_oracle(
            _each(lambda alpha: differential.cross_entropy_q_uniform(supp)),
            lambda: (supp, _uniform_logpdf(supp), _uniform_logpdf(supp)))

    if variant == "p-uniform":
        q = _make_distribution("beta", _require(opts, "q", variant))
        return _with_numeric_oracle(
            _each(lambda alpha: differential.cross_entropy_p_uniform(
                UNIT_INTERVAL, q, alpha).value),
            lambda: (UNIT_INTERVAL, _uniform_logpdf(UNIT_INTERVAL), q.logpdf))

    p = _make_distribution(_require(opts, "p_family", variant), _require(opts, "p", variant))
    if variant == "q-exponential":
        rate = _require(opts, "rate", variant)
        mgf = differential.mgf_of(p)
        return _with_numeric_oracle(
            _each(lambda alpha: differential.cross_entropy_q_exponential(mgf, rate, alpha).value),
            lambda: (p.support, p.logpdf, ExpFamilyDistribution.exponential(rate).logpdf))

    variance = _require(opts, "var", variant)
    half_normal = variant == "q-half-normal"
    mean = 0.0 if half_normal else opts["mean"]
    mgf = differential.mgf_of_centered_square(p, mean)

    def log_densities():
        q_logpdf = (_half_normal_logpdf(variance) if half_normal
                    else ExpFamilyDistribution.gaussian(mean, variance).logpdf)
        return p.support, p.logpdf, q_logpdf

    return _with_numeric_oracle(
        _each(lambda alpha: differential.cross_entropy_q_gaussian(
            mgf, mean, variance, alpha, half_normal=half_normal).value),
        log_densities, _kinks(p))


def _prepare_markov(opts):
    p_init = _read_masses(opts["p_init"]) if opts.get("p_init") else None
    q_init = _read_masses(opts["q_init"]) if opts.get("q_init") else None
    p = markov.MarkovSource.of(_read_matrix(opts["p"]), p_init)
    q = markov.MarkovSource.of(_read_matrix(opts["q"]), q_init)

    def referee(alpha):
        if alpha.is_one:
            return markov.shannon_rate_slope(p, q, opts["finite_n"])
        return markov.finite_n_cross_entropy(p, q, alpha, opts["finite_n"])

    return lambda alphas: markov.cross_entropy_rate(p, q, alphas), referee


def _prepare_gauss(opts):
    x = _parse_process(opts["x"], "--x")
    y = _parse_process(opts["y"], "--y")
    return (lambda alphas: gaussproc.rate_spectral(x, y, alphas),
            lambda alpha: gaussproc.rate_finite_n(x, y, alpha, opts["finite_n"]))


class _Target(NamedTuple):
    group: str
    add_options: Callable
    prepare: Callable


# Each target's command group, option builder and preparer.  A preparer
# reads, builds and validates the inputs once and returns
# (values(alphas) -> one value per order, referee(alpha) -> the oracle
# value).  The values take the whole grid in one library call, but for the
# closed form of a scalar family and the special reducers, which ``_each``
# evaluates one order at a time.
_TARGETS = {
    "discrete": _Target("xent", _add_discrete_opts, _prepare_discrete),
    "expfam": _Target("xent", _add_expfam_opts, _prepare_expfam),
    "special": _Target("xent", _add_special_opts, _prepare_special),
    "markov": _Target("rate", _add_markov_opts, _prepare_markov),
    "gauss": _Target("rate", _add_gauss_opts, _prepare_gauss),
}


# ---------------------------------------------------------------------------
# rendering

def _fmt(v: float) -> str:
    return format(v + 0.0 if v == 0.0 else v, ".12g")


_COLUMNS = ("alpha", "value", "oracle", "gap")


def _json_number(v: float | None):
    if v is None:
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _render(job: JobSpec, rows) -> str:
    # each row as (alpha, value, oracle, gap); the same infinity twice is
    # agreement, not nan
    rows = [(a.value, v, o, None if o is None else 0.0 if v == o else abs(v - o))
            for a, v, o in rows]
    fmt = job.output_format
    if fmt is OutputFormat.JSON:
        payload = [{"command": job.command,
                    **{key: _json_number(x) for key, x in zip(_COLUMNS, row)}} for row in rows]
        return json.dumps(payload if job.sweep else payload[0])
    if fmt is OutputFormat.CSV and any(row[2] is not None for row in rows):
        return "\n".join([",".join(_COLUMNS)] + [",".join(map(_fmt, row)) for row in rows])
    if fmt is OutputFormat.CSV or job.sweep:  # as _fmt: -0.0 + 0.0 is 0.0
        line = "%.12g,%.12g" if fmt is OutputFormat.CSV else "%.12g %.12g"
        return "\n".join((["alpha,value"] if fmt is OutputFormat.CSV else [])
                         + [line % (a + 0.0, v + 0.0) for a, v, _, _ in rows])
    _, value, oracle_value, gap = rows[0]
    out = [_fmt(value)]
    if oracle_value is not None:
        out += [f"oracle {_fmt(oracle_value)}", f"gap {_fmt(gap)}"]
    return "\n".join(out)


def run(job: JobSpec) -> tuple[int, str]:
    """Evaluate a job and return (exit_code, rendered_output)."""
    values, referee = _TARGETS[job.command.split()[1]].prepare(job.options)
    rows, failure = [], None
    for alpha, value in zip(job.alphas, values(job.alphas)):
        oracle_value = None
        if job.oracle_check:
            try:
                oracle_value = referee(alpha)
            except RenyiError as exc:  # the value still prints, as without --oracle
                failure = exc
        if job.bits:
            value = value / math.log(2)
            if oracle_value is not None:
                oracle_value = oracle_value / math.log(2)
        rows.append((alpha, value, oracle_value))
    if job.sweep:
        for (_, earlier, _), (later_a, later, _) in zip(rows, rows[1:]):
            if later > earlier + 1e-9:
                print(f"warning: sweep is not non-increasing at alpha={_fmt(later_a.value)}",
                      file=sys.stderr)
                break
    code = 2 if any(math.isinf(v) for _, v, _ in rows) else 0
    if failure is not None:
        print(f"error: oracle: {failure}", file=sys.stderr)
        code = 1
    return code, _render(job, rows)


def main(argv=None) -> int:
    try:
        job = parse_args(argv if argv is not None else sys.argv[1:])
        code, text = run(job)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RenyiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
