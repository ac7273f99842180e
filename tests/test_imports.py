"""Every imported name is read somewhere in its module, and every private
top-level name of the package somewhere in the package."""

import ast
import functools
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
