"""Every sltk module imports at its top, and only from modules below it.

The layers run from the error types up to the command line; a module may
import only modules listed before it. `__init__` re-exports the package and
is exempt. No module of the package or of its tests imports a name it
never reads.
"""

import ast
from pathlib import Path

import pytest

import sltk

LAYERS = ["errors", "_canon", "syntax", "semantics", "analysis", "tailcore",
          "mealy", "cps", "encodings", "equiv", "cli"]

SOURCE = Path(sltk.__file__).parent
TESTS = Path(__file__).parent


def _tree(name):
    return ast.parse((SOURCE / f"{name}.py").read_text())


def _sltk_imports(node):
    """Names of the sltk modules an import statement reads."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module is not None:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        parts = node.module.split(".")
        if parts[0] == "sltk":
            return parts[1:2] or [alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("sltk.")]
    return []


def test_every_module_has_a_layer():
    modules = {path.stem for path in SOURCE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_sit_at_the_top(name):
    body = _tree(name).body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant):
        body = body[1:]
    header = True
    for stmt in body:
        is_import = isinstance(stmt, (ast.Import, ast.ImportFrom))
        assert header or not is_import, (
            f"{name}.py:{stmt.lineno}: import below a non-import statement")
        header = header and is_import


@pytest.mark.parametrize("name", LAYERS)
def test_no_import_below_the_top_level(name):
    tree = _tree(name)
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert id(node) in top, (
                f"{name}.py:{node.lineno}: nested import")


@pytest.mark.parametrize("name", LAYERS)
def test_imports_only_earlier_layers(name):
    below = set(LAYERS[:LAYERS.index(name)])
    for node in ast.walk(_tree(name)):
        for module in _sltk_imports(node):
            assert module in below, (
                f"{name}.py:{node.lineno}: imports {module}, a later layer")


def _unread_imports(tree):
    """(line, name) for each name an import binds and the module never
    reads. `from __future__` imports bind nothing to read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(
    [p for p in SOURCE.glob("*.py") if p.stem != "__init__"]
    + list(TESTS.glob("*.py"))), ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    unread = _unread_imports(ast.parse(path.read_text()))
    assert not unread, ", ".join(f"{path.name}:{line}: {name}"
                                 for line, name in unread)
