"""Static checks of which modules the package imports.

Quadrature belongs to the referee (``oracle.py``) alone, and the closed forms
reach it only for the numeric MGF of Gamma and Beta sources; graph algorithms
come from numpy, and the exponential-family representation does not depend
on the referee it is checked against.
"""

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_quadrature_or_sparse_outside_oracle(path):
    names = imported_modules(path)
    if path.name != "oracle.py":
        assert not any(n == "scipy.integrate" or n.startswith("scipy.integrate.")
                       for n in names)
    assert not any(n == "scipy.sparse" or n.startswith("scipy.sparse.") for n in names)


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
