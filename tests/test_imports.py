"""Every module of the package and of its tests uses each name it
imports, every private top-level name is read somewhere in the package,
every public name of a paper module and every public member of a public
class is read by the package or allowlisted, and the package re-exports
the public names of its seven paper modules and nothing else.  Only
hypergraph.py names the bit budget of an index of id sets.  Importing
the package and its CLI loads no top-level module beyond a fixed list."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import edgestats

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "edgestats"


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
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants of the given
    modules (name -> source) that no module reads: neither as a bare name
    nor as an attribute.  Dunder names are not private."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{module} line {line}: {name}"
        for module, line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_the_checker_flags_only_unread_private_names():
    sources = {
        "a": (
            "_CAP = 3\n"
            "_unused, _PAIR = 1, 2\n"
            "_written: int = 0\n"
            "_written = 5\n"
            "__all__ = ['public']\n"
            "def _helper():\n"
            "    return _CAP\n"
            "class _Gone:\n"
            "    pass\n"
            "def public():\n"
            "    return _helper()\n"
        ),
        "b": "from . import a\nfrom .a import _Gone\nVALUE = a._PAIR\n",
    }
    assert dead_private_names(sources) == [
        "a line 2: _unused",
        "a line 3: _written",
        "a line 4: _written",
        "a line 8: _Gone",
    ]


def test_every_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


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


def names_read_outside_their_definition(source: str) -> set[str]:
    """Names a module reads, as bare names or attributes, leaving out the
    reads inside the top-level def or class that binds each one."""
    read: set[str] = set()
    for node in ast.parse(source).body:
        here = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                here.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                here.add(sub.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            here.discard(node.name)
        read |= here
    return read


# Public names that no module of the package reads, and who reads them.
PUBLIC_BUT_UNREAD = {
    "induced_edge_count": "the counting tests' reference",
    "conditional_junta": "perfbench",
    "format_mlp": "perfbench",
}


def test_every_public_name_is_read_in_the_package():
    """A public name that nothing in the package reads is dead code unless
    it is allowlisted; an allowlisted name must still be public and still
    unread, so the list cannot go stale."""
    read = set().union(
        *(
            names_read_outside_their_definition(path.read_text())
            for path in PACKAGE.glob("*.py")
            if path.name != "__init__.py"
        )
    )
    modules = [importlib.import_module(f"edgestats.{name}") for name in PAPER_MODULES]
    public = {name for module in modules for name in module.__all__}
    assert sorted(public - read) == sorted(PUBLIC_BUT_UNREAD)


def attribute_reads(node: ast.AST) -> Counter[str]:
    return Counter(
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def unread_members(sources: dict[str, str]) -> list[str]:
    """The public methods, properties and classmethods of the public
    top-level classes of the given modules (name -> source) that no module
    reads as an attribute outside the member's own body, as 'Class.member'.
    Reads match by name alone, whatever object they are made on."""
    members: list[tuple[str, ast.FunctionDef]] = []
    reads: Counter[str] = Counter()
    for source in sources.values():
        tree = ast.parse(source)
        reads += attribute_reads(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members += [
                    (node.name, member)
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                ]
    return sorted(
        f"{cls}.{member.name}"
        for cls, member in members
        if reads[member.name] == attribute_reads(member)[member.name]
    )


def test_the_checker_flags_only_unread_members():
    sources = {
        "a": (
            "class Shape:\n"
            "    def area(self):\n"
            "        return self.side * self.side\n"
            "    @property\n"
            "    def side(self):\n"
            "        return 2\n"
            "    @classmethod\n"
            "    def unit(cls):\n"
            "        return cls.unit()\n"
            "    def shown(self):\n"
            "        return 1\n"
            "    def spare(self):\n"
            "        return 0\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
            "    def _helper(self):\n"
            "        return 0\n"
            "class _Hidden:\n"
            "    def never(self):\n"
            "        return 0\n"
            "def spare():\n"
            "    return 0\n"
        ),
        "b": "from .a import Shape\nAREA = Shape().area()\nSHOWN = AREA.shown\n",
    }
    assert unread_members(sources) == ["Shape.spare", "Shape.unit"]


# Public class members that no module of the package reads, and who reads them.
MEMBERS_BUT_UNREAD = {
    "MultilinearPoly.evaluate": "the polynomial tests' oracle",
    "Hypergraph.complement": "the discrepancy tests' oracle",
    "JuntaTable.feasible_items": "perfbench",
    "JuntaTable.subset_probability": "perfbench",
}


def test_every_public_member_is_read_in_the_package():
    """A public member that nothing in the package reads is dead code
    unless it is allowlisted; an allowlisted member must still exist and
    still be unread, so the list cannot go stale."""
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_members(sources) == sorted(MEMBERS_BUT_UNREAD)


# Each refusal policy is written once, in its helper: work past a cap in
# hypergraph._check_cap, vertex ids outside [1..n] in hypergraph._vertices,
# and the number of a bad line of a text file in serialize._read_records,
# as the "line " of the f-string "line {lineno}: ...".
REFUSAL_PHRASES = ("exceeds the cap", "vertex range")
REFUSAL_PREFIXES = ("line ",)
REFUSAL_HELPERS = {"_check_cap", "_vertices", "_read_records"}


def hand_written_refusals(source: str) -> list[str]:
    """String literals (f-string parts and docstrings included) that say a
    refusal phrase, or start with a refusal prefix, outside the top-level
    helpers that own them."""
    tree = ast.parse(source)
    owned = {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in REFUSAL_HELPERS
        for sub in ast.walk(node)
    }
    found = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in owned
        and (
            any(phrase in node.value for phrase in REFUSAL_PHRASES)
            or node.value.startswith(REFUSAL_PREFIXES)
        )
    ]
    return [f"line {line}: {text!r}" for line, text in sorted(found)]


def test_the_checker_flags_only_hand_written_refusals():
    source = (
        "def _check_cap(what, count, cap):\n"
        "    if count > cap:\n"
        "        raise ValueError(f'{what} = {count} exceeds the cap of {cap}')\n"
        "def _vertices(ids, n, what):\n"
        "    raise ValueError(f'{what} {ids} leaves the vertex range [1..{n}]')\n"
        "def build(n, k):\n"
        "    if k > 9:\n"
        "        raise ValueError(f'k = {k} exceeds the cap of 9')\n"
        "    def _vertices(ids):\n"
        "        raise ValueError('ids leave the vertex range')\n"
        "    return _check_cap('k', k, 9)\n"
        "NOTE = 'refused past the cap; outside the range'\n"
        "def _read_records(lines):\n"
        "    for lineno, line in enumerate(lines, start=1):\n"
        "        raise ValueError(f'line {lineno}: {line}')\n"
        "def parse(lines):\n"
        "    for lineno, line in enumerate(lines, start=1):\n"
        "        raise ValueError(f'line {lineno}: bad record {line!r}')\n"
        "    return _read_records(lines, 'one record per line')\n"
    )
    assert hand_written_refusals(source) == [
        "line 8: ' exceeds the cap of 9'",
        "line 10: 'ids leave the vertex range'",
        "line 18: 'line '",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cap_and_vertex_range_refusal_goes_through_its_helper(path):
    assert hand_written_refusals(path.read_text()) == []


# The one place that chooses between int masks and frozensets for an index
# of id sets is hypergraph._bitsets, so only hypergraph.py names its bit
# budget and its mask maker.
BITSET_NAMES = re.compile(r"\b(_TAIL_BITS_PER_EDGE|_bitmask)\b")


@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "hypergraph.py"}), ids=lambda p: p.name
)
def test_only_hypergraph_names_the_bit_budget_and_the_mask_maker(path):
    assert BITSET_NAMES.findall(path.read_text()) == []


# The top-level modules that importing edgestats and edgestats.cli loads
# into an interpreter started with -I -S (CPython 3.11).  Each import adds
# start-up time to every command, so a new one is a deliberate change to
# this list; a Python whose standard library imports differently may
# need it updated.
IMPORTED_MODULES = {
    "__future__", "_ast", "_bisect", "_blake2", "_collections", "_collections_abc", "_decimal",
    "_functools", "_hashlib", "_json", "_opcode", "_operator", "_random", "_sha512", "_sre",
    "_stat", "_typing", "_weakrefset", "argparse", "ast", "bisect", "collections", "contextlib",
    "copy", "copyreg", "dataclasses", "decimal", "dis", "edgestats", "enum", "errno", "fnmatch",
    "fractions", "functools", "genericpath", "gettext", "hashlib", "importlib", "inspect",
    "ipaddress", "itertools", "json", "keyword", "linecache", "math", "ntpath", "numbers",
    "opcode", "operator", "os", "pathlib", "posixpath", "random", "re", "reprlib", "stat",
    "token", "tokenize", "types", "typing", "urllib", "warnings", "weakref",
}


def test_importing_the_package_loads_only_the_listed_modules():
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import edgestats, edgestats.cli\n"
        "print('\\n'.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert set(run.stdout.split()) - IMPORTED_MODULES == set()
