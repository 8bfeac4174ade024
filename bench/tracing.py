"""Traced runs: timing wrappers at the public functions of each module.

``install(store)`` wraps every function named in ``LAYERS`` and rebinds the
wrapped object under every name that refers to it in any loaded ``rxent``
module (``markov.classify``, ``gaussproc.cholesky_lower``,
``expfam.integrate``, ``oracle.quad``, ...), so calls made inside the
package are timed too.  Spans (name, start, end, parent, op) are kept in
memory in flat arrays and written out once the run ends.

A span's self time is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import array
import sys
import time
import types

# (span name, module, attribute); "Class.__init__" wraps construction and
# "Class.*" every public classmethod constructor of the class
LAYERS = [
    ("cli.build_parser", "rxent.cli", "build_parser"),
    ("cli.main", "rxent.cli", "main"),
    ("cli.loadtxt", "rxent.cli", "np.loadtxt"),
    ("construct.DiscreteDistribution", "rxent.discrete", "DiscreteDistribution.__init__"),
    ("construct.MarkovSource", "rxent.markov", "MarkovSource.__init__"),
    ("construct.StationaryGaussianSpec", "rxent.gaussproc", "StationaryGaussianSpec.__init__"),
    ("construct.ExpFamilyDistribution", "rxent.expfam", "ExpFamilyDistribution.*"),
    ("discrete.renyi_cross_entropy", "rxent.discrete", "renyi_cross_entropy"),
    ("discrete.alt_cross_entropy", "rxent.discrete", "alt_cross_entropy"),
    ("discrete.logsumexp", "rxent.discrete", "logsumexp"),
    ("expfam.combine_natural", "rxent.expfam", "combine_natural"),
    ("expfam.log_partition", "rxent.expfam", "log_partition"),
    ("expfam.log_base_expectation", "rxent.expfam", "log_base_expectation"),
    ("differential.cross_entropy_closed", "rxent.differential", "cross_entropy_closed"),
    ("differential.cross_entropy_natural", "rxent.differential", "cross_entropy_natural"),
    ("differential.cross_entropy_multivariate_gaussian", "rxent.differential",
     "cross_entropy_multivariate_gaussian"),
    ("differential.cross_entropy_p_uniform", "rxent.differential", "cross_entropy_p_uniform"),
    ("differential.cross_entropy_q_exponential", "rxent.differential", "cross_entropy_q_exponential"),
    ("differential.cross_entropy_q_gaussian", "rxent.differential", "cross_entropy_q_gaussian"),
    ("oracle.cross_entropy_numeric", "rxent.oracle", "cross_entropy_numeric"),
    ("oracle.integrate", "rxent.oracle", "integrate"),
    ("oracle.mgf_numeric", "rxent.oracle", "mgf_numeric"),
    ("oracle.cross_entropy_grid2d_gaussian", "rxent.oracle", "cross_entropy_grid2d_gaussian"),
    ("oracle.quad", "rxent.oracle", "quad"),
    ("markov.build_weighted", "rxent.markov", "build_weighted"),
    ("markov.classify", "rxent.markov", "classify"),
    ("markov.perron_eigenpair", "rxent.markov", "perron_eigenpair"),
    ("markov.cross_entropy_rate", "rxent.markov", "cross_entropy_rate"),
    ("markov.finite_n_cross_entropy", "rxent.markov", "finite_n_cross_entropy"),
    ("markov.shannon_rate_slope", "rxent.markov", "shannon_rate_slope"),
    ("gaussproc.psd", "rxent.gaussproc", "psd"),
    ("gaussproc.toeplitz_cov", "rxent.gaussproc", "toeplitz_cov"),
    ("gaussproc.rate_spectral", "rxent.gaussproc", "rate_spectral"),
    ("gaussproc.rate_finite_n", "rxent.gaussproc", "rate_finite_n"),
    ("linalg.cholesky_lower", "rxent.linalg", "cholesky_lower"),
    ("linalg.spd_logdet", "rxent.linalg", "spd_logdet"),
    ("linalg.spd_inverse", "rxent.linalg", "spd_inverse"),
]

# entry points also report how often they raise a typed RenyiError
ENTRY_POINTS = [
    "construct.DiscreteDistribution", "construct.MarkovSource",
    "construct.StationaryGaussianSpec", "construct.ExpFamilyDistribution",
    "discrete.renyi_cross_entropy", "discrete.alt_cross_entropy",
    "differential.cross_entropy_closed", "differential.cross_entropy_natural",
    "differential.cross_entropy_multivariate_gaussian", "differential.cross_entropy_p_uniform",
    "differential.cross_entropy_q_exponential", "differential.cross_entropy_q_gaussian",
    "markov.cross_entropy_rate", "markov.finite_n_cross_entropy", "markov.shannon_rate_slope",
    "gaussproc.rate_spectral", "gaussproc.rate_finite_n",
    "oracle.cross_entropy_numeric", "oracle.cross_entropy_grid2d_gaussian",
]

ROOT = "op"
_FIELDS = 5  # name id, start, end, parent index, op id


class SpanStore:
    """Spans in memory, as flat float arrays, plus raise and result counters."""

    def __init__(self):
        self.names = [ROOT]
        self.spans = array.array("d")
        self.stack = []
        self.op = -1
        self.raised = {}
        self.diff_depth = 0
        self.diff_results = 0
        self.diff_quadrature = 0

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, nid):
        idx = len(self.spans) // _FIELDS
        parent = self.stack[-1] if self.stack else -1
        self.spans.extend((nid, time.perf_counter(), 0.0, parent, self.op))
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx * _FIELDS + 2] = time.perf_counter()
        self.stack.pop()

    def rows(self):
        s = self.spans
        return [(self.names[int(s[i])], s[i + 1], s[i + 2], int(s[i + 3]), int(s[i + 4]))
                for i in range(0, len(s), _FIELDS)]

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            fh.writelines(f"{n},{a!r},{b!r},{p},{o}\n" for n, a, b, p, o in self.rows())
            fh.write(f"#raised,{','.join(f'{k}={v}' for k, v in self.raised.items())}\n")
            fh.write(f"#differential,{self.diff_results},{self.diff_quadrature}\n")


def load(path):
    """Spans and counters written by ``SpanStore.dump``."""
    rows, raised, diff = [], {}, (0, 0)
    with open(path) as fh:
        next(fh)
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if parts[0] == "#raised":
                raised = {k: int(v) for k, v in (p.split("=") for p in parts[1:] if p)}
            elif parts[0] == "#differential":
                diff = (int(parts[1]), int(parts[2]))
            else:
                rows.append((parts[0], float(parts[1]), float(parts[2]), int(parts[3]),
                             int(parts[4])))
    return rows, raised, diff


def self_times(rows):
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it."""
    children = {}
    for i, (_, _, _, parent, _) in enumerate(rows):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(rows):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda j: rows[j][1]):
            lo, hi = max(rows[c][1], reach), min(rows[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(rows):
    """Per span name: (calls, total self seconds)."""
    totals = {}
    for (name, *_), own in zip(rows, self_times(rows)):
        calls, t = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, t + own)
    return totals


def _wrap(store, name, fn):
    nid = store.name_id(name)
    from rxent.errors import RenyiError
    differential = name.startswith("differential.")

    def wrapper(*args, **kwargs):
        idx = store.open(nid)
        if differential:
            store.diff_depth += 1
        try:
            result = fn(*args, **kwargs)
        except RenyiError:
            store.raised[name] = store.raised.get(name, 0) + 1
            raise
        finally:
            store.close(idx)
            if differential:
                store.diff_depth -= 1
        if differential and store.diff_depth == 0 and hasattr(result, "method"):
            store.diff_results += 1
            store.diff_quadrature += result.method.value == "quadrature"
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Installed:
    """Record of rebound names, so a run can restore the originals."""

    def __init__(self):
        self.undo = []

    def set(self, obj, attr, new):
        self.undo.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)))
        setattr(obj, attr, new)

    def restore(self):
        for obj, attr, old in reversed(self.undo):
            setattr(obj, attr, old)
        self.undo.clear()


def _rxent_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "rxent" or n.startswith("rxent."))]


def install(store) -> Installed:
    """Wrap every function in LAYERS; returns the record that restores them."""
    import rxent.cli  # noqa: F401  (the CLI module must be loaded to be wrapped)

    done = Installed()
    modules = _rxent_modules()
    for name, modname, attr in LAYERS:
        owner = sys.modules[modname]
        if attr == "np.loadtxt":
            numpy = owner.np
            view = types.SimpleNamespace(**vars(numpy))
            view.loadtxt = _wrap(store, name, numpy.loadtxt)
            done.set(owner, "np", view)
        elif attr.endswith(".__init__"):
            cls = getattr(owner, attr.split(".")[0])
            done.set(cls, "__init__", _wrap(store, name, cls.__init__))
        elif attr.endswith(".*"):
            cls = getattr(owner, attr.split(".")[0])
            for key, member in list(vars(cls).items()):
                if isinstance(member, classmethod) and not key.startswith("_"):
                    done.set(cls, key, classmethod(_wrap(store, name, member.__func__)))
        else:
            original = getattr(owner, attr)
            wrapped = _wrap(store, name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        done.set(mod, key, wrapped)
    return done
