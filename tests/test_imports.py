"""Every module of the package uses each name it imports, and the package
re-exports the public names of its seven paper modules and nothing else."""

import ast
import importlib
from pathlib import Path

import pytest

import edgestats

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "edgestats"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read.  ``__future__`` imports,
    star imports and names listed in ``__all__`` (re-exports) count as
    used, as do the names an ``__all__`` expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.walk(ast.parse(part.value, mode="eval"))
                used |= {n.id for n in quoted if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            strings = (c for c in ast.walk(node.value) if isinstance(c, ast.Constant))
            used |= {c.value for c in strings if isinstance(c.value, str)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_checker_flags_only_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from typing import Mapping, Sequence\n"
        "from .x import exported\n"
        "from .y import *\n"
        "from . import y, z\n"
        "__all__ = ['exported', *y.__all__]\n"
        "def f(a: 'Mapping[str, int]') -> Sequence[int]:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: osp", "line 7: z"]


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


PAPER_MODULES = (
    "hypergraph",
    "profiles",
    "multilinear",
    "coupling",
    "discrepancy",
    "anticonc",
    "cover",
)
SUPPORT_MODULES = ("rng", "serialize", "acceptance", "cli")


def test_every_module_is_either_re_exported_or_support():
    stems = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert stems == set(PAPER_MODULES) | set(SUPPORT_MODULES)


def test_the_package_surface_is_the_paper_modules_all():
    modules = [importlib.import_module(f"edgestats.{name}") for name in PAPER_MODULES]
    names = edgestats.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in modules for name in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(edgestats, name) is getattr(module, name), name
    for support in SUPPORT_MODULES:
        for name in importlib.import_module(f"edgestats.{support}").__all__:
            assert name not in names and not hasattr(edgestats, name), name
