import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "zclasses").glob("*.py"))
WORKLOADS = ROOT / "perfbench" / "workloads.py"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips asserts, so none may guard an invariant in the library."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    """Every import sits at module level, so the module graph stays one-way
    (zclass, then isoclinism, then catalog) and a cycle fails at import time."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert lines == [], f"{path.name}: import inside a block at line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_whole_table_transpose(path):
    """`.T` of a whole table is a strided view, so reading it walks one entry
    per row: tables are read along their rows, and a block of columns comes
    from `core._columns`.  A transposed subscripted block, such as
    `m[a:b, rows].T`, is allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "T"
             and isinstance(node.value, (ast.Name, ast.Attribute))]
    assert lines == [], f"{path.name}: .T of a whole table at line(s) {lines}"


def _library_uses(path):
    """The library names a script reads, as (line, module, name, call): every
    ``module.name`` of a module it imports from zclasses, with ``call`` the
    Call node when the name is called or handed to a caller as its function
    (``p.op(span, module.name, *args, **kwargs)``), else None."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.asname or alias.name: importlib.import_module(f"zclasses.{alias.name}")
               for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "zclasses"
               for alias in node.names}

    def library(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules)

    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fns = [(i, fn) for i, fn in enumerate([node.func, *node.args]) if library(fn)
                   and callable(getattr(modules[fn.value.id], fn.attr, None))]
            if fns:
                i, fn = fns[0]
                calls[id(fn)] = node, node.args[i:]
    for node in ast.walk(tree):
        if library(node):
            yield node.lineno, modules[node.value.id], node.attr, calls.get(id(node))


def test_benchmark_reads_only_what_the_library_has():
    """Every library attribute the benchmark's workloads read exists, and
    every call it makes binds to the signature, so a library change that
    breaks the benchmark fails here first."""
    uses = list(_library_uses(WORKLOADS))
    assert len(uses) > 40
    for line, module, name, call in uses:
        assert hasattr(module, name), f"line {line}: {module.__name__}.{name} is gone"
        if call is None:
            continue
        node, args = call
        if any(isinstance(a, ast.Starred) for a in args) or \
                any(kw.arg is None for kw in node.keywords):
            args = []       # a spread argument list: bind the keywords alone
        try:
            inspect.signature(getattr(module, name)).bind_partial(
                *args, **{kw.arg: None for kw in node.keywords if kw.arg})
        except TypeError as exc:
            pytest.fail(f"line {line}: {module.__name__}.{name}: {exc}")
