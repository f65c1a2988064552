"""Static checks on the package source that need no linter: no unused
import, no import of a package module inside a function, no cycle among
the package modules, and no call of ``face_set``."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tnt"


def _bound_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its import; names from
    ``__future__`` bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.AST) -> set[str]:
    """The names the module reads: loaded names, names in quoted
    annotations, and the strings of ``__all__``, which re-exports."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name))
    return used


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((line, name) for name, line in _bound_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import comb, exp\n"
        "from typing import Sequence\n"
        "__all__ = ['exp']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    from . import homology\n"
        "    return comb(3, 1)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "j"), (8, "homology")]


MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def _package_imports(source: str) -> list[tuple[int, str, bool]]:
    """``(line, module, in_function)`` for each import of a module of the
    package: relative imports and those of ``tnt``.  ``from . import x``
    imports the module x when there is one, else a name of ``__init__``."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "tnt":
                    found.append((node.lineno, parts[1] if len(parts) > 1 else "__init__", in_function))
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "tnt"):
            parts = (node.module or "").split(".")[0 if node.level else 1 :]
            if parts and parts[0]:
                found.append((node.lineno, parts[0], in_function))
            else:
                for alias in node.names:
                    found.append((node.lineno, alias.name if alias.name in MODULES else "__init__", in_function))
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle of the module graph as a closed path, or [] when it has none."""
    done: set[str] = set()
    path: list[str] = []

    def walk(m: str) -> list[str]:
        if m in path:
            return path[path.index(m) :] + [m]
        if m in done:
            return []
        path.append(m)
        for n in sorted(graph.get(m, ())):
            if found := walk(n):
                return found
        path.pop()
        done.add(m)
        return []

    for m in sorted(graph):
        if found := walk(m):
            return found
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_at_module_level(path):
    # a module that must import another inside a function hides a cycle
    assert [(line, m) for line, m, inside in _package_imports(path.read_text()) if inside] == []


def test_package_module_graph_has_no_cycle():
    graph = {p.stem: {m for _, m, _ in _package_imports(p.read_text())} for p in PACKAGE.glob("*.py")}
    assert _cycle(graph) == []


def test_import_checks_see_each_kind():
    source = (
        "import json\n"
        "import tnt.gf2\n"
        "from . import __version__, homology\n"
        "from .complexes import simplex\n"
        "from tnt.errors import TntError\n"
        "def f():\n"
        "    from .symmetry import _orbit_marks\n"
        "    return _orbit_marks\n"
    )
    assert _package_imports(source) == [
        (2, "gf2", False),
        (3, "__init__", False),
        (3, "homology", False),
        (4, "complexes", False),
        (5, "errors", False),
        (7, "symmetry", True),
    ]
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []


def _face_set_calls(source: str) -> list[int]:
    """The lines that call a ``face_set`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "face_set"
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_never_calls_face_set(path):
    # membership reads the vertex-star masks (has_face, _mask) and
    # enumeration the sorted face lists; face_set is a view for callers
    assert _face_set_calls(path.read_text()) == []


def test_face_set_check_sees_each_call():
    source = (
        "def face_set(j):\n"
        "    return set()\n"
        "def f(K, j):\n"
        "    edges = K.face_set(1)\n"
        "    return (1, 2) in K.face_set(j - 1) or face_set(j) or K.has_face((1, 2))\n"
        "g = K.face_set\n"
    )
    assert _face_set_calls(source) == [4, 5]
