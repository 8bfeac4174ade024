"""Checks of which modules the package imports.

Quadrature belongs to the referee (``oracle.py``) alone, and the closed forms
reach it only for the numeric MGF of Gamma and Beta sources; graph algorithms
come from numpy, and the exponential-family representation does not depend
on the referee it is checked against.  The quadrature rule is the package's
own, so no module imports scipy.  From the package the referee imports only
the order type, the errors and the supports, never a closed form.
"""

import ast
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rxent"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_modules(path):
    """Absolute names of every module a source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "rxent" + (f".{base}" if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_package_modules_found():
    assert {"oracle.py", "expfam.py", "markov.py"} <= {p.name for p in MODULES}


def test_expfam_does_not_import_oracle():
    names = imported_modules(PACKAGE / "expfam.py")
    assert not any(n == "rxent.oracle" or n.startswith("rxent.oracle.") for n in names)


def test_differential_uses_only_the_numeric_mgf_of_oracle():
    path = PACKAGE / "differential.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "oracle"}
    assert used == {"mgf_numeric"}
    assert not any(isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[-1] == "oracle" for node in ast.walk(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    assert not any(n == "scipy" or n.startswith("scipy.") for n in imported_modules(path))


def test_oracle_cannot_reach_a_closed_form():
    """The referee imports only the order type, the errors and the supports,
    so no closed form it checks can leak into its reference values."""
    names = imported_modules(PACKAGE / "oracle.py")
    assert "rxent" not in names  # the package itself loads every module
    assert {n.split(".")[1] for n in names if n.startswith("rxent.")} <= {
        "alpha", "errors", "support"}


def test_closed_form_sweeps_load_no_scipy(tmp_path):
    """Importing the package and the CLI, then one sweep per target that
    needs no quadrature, leaves scipy unloaded."""
    files = {"p.csv": "0.5,0.3,0.2\n", "q.csv": "0.4,0.4,0.2\n",
             "P.csv": "0.9,0.1\n0.2,0.8\n", "Q.csv": "0.7,0.3\n0.4,0.6\n",
             "c1.csv": "2.0,0.3\n0.3,1.0\n", "c2.csv": "1.5,-0.2\n-0.2,0.8\n",
             "r.csv": "2.0\n0.6\n-0.2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    families = {"gaussian": ("mu=0.3,var=1.5", "mu=-0.2,var=2"),
                "exponential": ("lambda=1.5", "lambda=0.7"),
                "beta": ("a=2.5,b=1.5", "a=0.8,b=3"),
                "gamma": ("k=2,theta=0.5", "k=1.5,theta=1.2"),
                "chi2": ("nu=3", "nu=5"),
                "laplace": ("mu=0.4,b=0.7", "mu=0.4,b=1.3")}
    # every grid starts below alpha = 1, where some targets diverge
    sweeps = [("discrete --p p.csv --q q.csv", "0.5:3:0.25"),
              ("expfam --family mvgauss --p c1.csv --q c2.csv", "0.5:3:0.25"),
              ("expfam --family mvgauss --p c1.csv --q c2.csv --method natural", "0.5:3:0.25"),
              ("special q-gaussian --p-family laplace --p mu=0.2,b=0.8 --mean -0.5 --var 1.5",
               "0.5:3:0.25"),
              ("special q-exponential --p-family gamma --p k=2,theta=0.5 --rate 1.5",
               "0.5:3:0.25"),
              ("special q-exponential --p-family beta --p a=2,b=3 --rate 1.5", "0.5:3:0.25"),
              ("special q-half-normal --p-family exponential --p lambda=1.5 --var 2",
               "0.5:3:0.25"),
              ("special p-uniform --q a=2,b=3", "0.5:3:0.25"),
              ("markov --p P.csv --q Q.csv", "0.5:3:0.25"),
              ("gauss --x r.csv --y ar1:0.3,2", "0.25:2.75:0.5")]
    sweeps += [(f"expfam --family {family} --p {p} --q {q} --method {method}", "0.5:3:0.25")
               for family, (p, q) in families.items() for method in ("closed", "natural")]
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import rxent, rxent.cli
        for words, grid in {sweeps!r}:
            argv = ["sweep"] + words.split() + ["--alphas", grid]
            with contextlib.redirect_stdout(io.StringIO()):
                code = rxent.cli.main(argv)
            assert code in (0, 2), (words, code)  # 2: an order diverges
        print(sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy.")))
    """)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_imports_load_no_exact_arithmetic():
    """Importing the package and the CLI loads neither fractions nor decimal:
    the exact verdict of the Gaussian-process closed form imports fractions
    only next to an edge, so that start-up does not pay for it."""
    script = ("import sys, rxent, rxent.cli; "
              "print(sorted(n for n in sys.modules if n in ('fractions', 'decimal')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# Functions that may fork on the alpha = 1 marker: the referees, which have
# their own alpha = 1 code.  Every other value, the MGF reducers included,
# gets its Shannon limit from its own formula at t = alpha - 1 = 0.
MARKER_FORKS = {
    "differential.py": set(),
    "markov.py": {"finite_n_cross_entropy", "shannon_rate_slope"},
    "gaussproc.py": {"rate_finite_n"},
    "discrete.py": set(),
    "expfam.py": set(),
}


def _marker_readers(path):
    """Names of the top-level functions that read ``.is_one`` or
    ``.is_finite_order``, with "<module>" for reads outside any function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = set()
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in ("is_one", "is_finite_order"):
                readers.add(name)
    return readers


@pytest.mark.parametrize("name", sorted(MARKER_FORKS))
def test_alpha_one_forks_only_where_allowed(name):
    assert _marker_readers(PACKAGE / name) <= MARKER_FORKS[name]


def test_marker_readers_are_found():
    assert _marker_readers(PACKAGE / "cli.py") >= {"_discrete_oracle"}


def test_production_never_calls_the_slope_referee():
    for name in MARKER_FORKS:
        tree = ast.parse((PACKAGE / name).read_text())
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "shannon_rate_slope" not in called, name


def _raised_names():
    """Names that a ``raise`` statement anywhere in the package raises."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    """Each exception class of errors.py is raised in the package or is a
    base of one that is, so no error type outlives its last raise."""
    path = PACKAGE / "errors.py"
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, ast.ClassDef)}
    assert {"RenyiError", "InvalidParameterError", "DoubleRangeError"} <= bases.keys()
    live, pending = set(), list(_raised_names() & bases.keys())
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            pending.extend(bases[name] & bases.keys())
    assert sorted(bases.keys() - live) == []


class _NoNumpy:
    """Stands in for numpy in a module: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on a scalar path")


def test_differential_does_not_import_numpy():
    assert not any(n == "numpy" or n.startswith("numpy.")
                   for n in imported_modules(PACKAGE / "differential.py"))


def test_scalar_routes_never_touch_numpy(monkeypatch):
    """The closed and natural routes of the six scalar families and every
    reducer on every source it accepts (the Gamma and Beta numeric MGFs
    included) run on plain floats: numpy in expfam, specfun and oracle
    raises on any use, and each value is exactly a float."""
    from rxent import differential, expfam, oracle, specfun
    from rxent.expfam import ExpFamilyDistribution as E
    from rxent.support import UNIT_INTERVAL

    for module in (expfam, specfun, oracle):  # differential imports no numpy (above)
        monkeypatch.setattr(module, "np", _NoNumpy())
    orders = [0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 7.0]
    seen = []

    def check(result, diverges=None):
        value = result if isinstance(result, float) else result.value
        assert type(value) is float, (result, type(value))
        if diverges is not None:
            assert result.diverged is diverges, result
        seen.append(math.isinf(value))

    # (source, reference, an order where the pair diverges)
    pairs = [(E.beta(2.0, 3.0), E.beta(0.8, 4.0), 12.0),
             (E.chi_squared(9.0), E.chi_squared(1.0), 12.0),
             (E.exponential(3.0), E.exponential(4.0), 0.2),
             (E.gamma(2.5, 1.2), E.gamma(0.8, 1.5), 14.0),
             (E.gaussian(0.3, 2.0), E.gaussian(1.0, 1.5), 0.2),
             (E.laplace(0.7, 2.0), E.laplace(0.7, 1.5), 0.2)]
    for p, q, edge in pairs:
        eta = expfam.combine_natural(expfam.to_natural(p), expfam.to_natural(q), 2.0)
        assert all(type(c) is float for c in eta.components)
        assert type(expfam.log_partition(eta)) is float
        for alpha in orders + [edge]:
            for route in (differential.cross_entropy_closed, differential.cross_entropy_natural):
                check(route(p, q, alpha), diverges=alpha == edge)

    half_line = [E.exponential(2.0), E.gamma(2.5, 1.2), E.chi_squared(3.0), E.beta(2.0, 3.0)]
    everywhere = half_line + [E.gaussian(0.3, 2.0), E.laplace(0.7, 1.5)]
    for alpha in orders + [0.2]:
        for p, rate in zip(half_line, (3.0, 1.25, 0.75, 1.5)):  # below 1/3 s leaves the interval
            check(differential.cross_entropy_q_exponential(differential.mgf_of(p), rate, alpha))
            mgf = differential.mgf_of_centered_square(p, 0.0)
            check(differential.cross_entropy_q_gaussian(mgf, 0.0, 1.5, alpha, half_normal=True))
        for p in everywhere:
            mgf = differential.mgf_of_centered_square(p, 0.5)
            check(differential.cross_entropy_q_gaussian(mgf, 0.5, 1.2, alpha))
        check(differential.cross_entropy_p_uniform(UNIT_INTERVAL, E.beta(0.8, 4.0), alpha))
    check(differential.cross_entropy_q_uniform(UNIT_INTERVAL))
    assert any(seen) and not all(seen)  # both verdicts were reached
