"""Every imported name is read somewhere in its module, every private
top-level name of the package somewhere in the package, and the library's
sampling, forecast, likelihood and fit paths never load SciPy."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_MODULES = sorted(p for top in ("src", "tests") for p in (_ROOT / top).rglob("*.py"))
_PACKAGE = sorted((_ROOT / "src" / "pmbp").rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read, less the module's __all__
    and `from __future__` imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", _MODULES,
                         ids=[str(p.relative_to(_ROOT)) for p in _MODULES])
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, [f"{path.name}:{line} {name}" for line, name in unused]


def _private_definitions(tree: ast.Module) -> dict:
    """Top-level functions, classes and assignments whose name starts with
    one underscore, by name, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


@functools.cache
def _package_reads() -> frozenset:
    """Every name that a module of the package reads, as a name or as an
    attribute."""
    read = set()
    for path in _PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return frozenset(read)


@pytest.mark.parametrize("path", _PACKAGE,
                         ids=[str(p.relative_to(_ROOT)) for p in _PACKAGE])
def test_no_private_name_that_only_the_tests_read(path):
    # code that only the tests call belongs with them, in tests/reference
    defined = _private_definitions(ast.parse(path.read_text(), str(path)))
    unread = sorted((line, name) for name, line in defined.items()
                    if name not in _package_reads())
    assert not unread, [f"{path.name}:{line} {name}" for line, name in unread]


_SCIPY_FREE = """
import sys
import numpy as np
import pmbp
p = pmbp.ModelParams(d=2, e=1, theta=np.ones((2, 2)),
                     alpha=[[0.3, 0.2], [0.2, 0.3]], gamma=[0.0, 0.0],
                     nu=[0.4, 0.4])
ds = pmbp.censor(pmbp.sample_pmbp(p, 30.0, seed=1), dims=[1], width=1.0)
pmbp.predict_counts(p, ds, [30.0, 31.0, 32.0], 1, 0)
pmbp.nll_and_grad(p, ds)
pmbp.fit([ds], pmbp.FitConfig(n_starts=1, max_iter=1))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_library_paths_do_not_load_scipy():
    # importing SciPy would add to every run's start-up time and memory;
    # only pmbp.gof reaches for it.  A fresh interpreter, since this one
    # has SciPy loaded already
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SCIPY_FREE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout
