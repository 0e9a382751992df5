"""Lint checks with the stdlib only.

No package module or test file imports a name it never uses, and no package
module defines a private top-level name it never uses.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "kronsec"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py"))
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, re\nfrom x import y as z\nre.sub(z)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_names(source: str) -> list[str]:
    """Top-level _-prefixed functions, classes and assignments the module never reads.

    Dunder names are read by Python itself, so they are not counted.
    """
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


def test_the_scan_finds_a_dead_private_helper():
    source = (
        "_CAP = 3\n_DEAD: int = 4\n"
        "def _used(x):\n    return x\n"
        "def _poly_rem(a, b):\n    return a\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _used(_CAP)\n"
    )
    assert unused_private_names(source) == ["_DEAD", "_Gone", "_poly_rem"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_has_no_dead_private_helpers(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
