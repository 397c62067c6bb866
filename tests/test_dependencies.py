"""The dependency rules: numpy is the only runtime dependency, and no test
may use mpmath or sympy, which the project does not declare."""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
UNDECLARED_IN_TESTS = {"mpmath", "sympy"}

# Run in a fresh interpreter: each name set to None in sys.modules makes its
# import raise ImportError, submodules included.
_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
for name in ("scipy", "mpmath", "sympy"):
    sys.modules[name] = None
import gaugepair
names = sorted(info.name for info in pkgutil.walk_packages(gaugepair.__path__, "gaugepair."))
for name in names:
    importlib.import_module(name)
print(" ".join(names))
"""


def test_every_module_imports_without_scipy_mpmath_or_sympy():
    done = subprocess.run([sys.executable, "-c", _IMPORT_EVERY_MODULE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    imported = set(done.stdout.split())
    on_disk = {f"gaugepair.{path.stem}" for path in (SRC / "gaugepair").glob("*.py")
               if path.stem != "__init__"}
    assert imported == on_disk


def _imported_roots(path):
    """The top-level package of every import in the file, at any depth."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_test_module_imports_mpmath_or_sympy():
    offenders = {path.name: sorted(_imported_roots(path) & UNDECLARED_IN_TESTS)
                 for path in TESTS.rglob("*.py")}
    assert not {name: roots for name, roots in offenders.items() if roots}
    # the check reads the imports it means to catch
    assert "numpy" in _imported_roots(TESTS / "test_quadrature.py")
