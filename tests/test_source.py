import ast
import importlib
import inspect
import re
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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    """Each name a module imports at module level is read in it, so code
    deleted from a module takes its imports with it.  ``__init__.py``
    imports to re-export, and ``__future__`` imports switch features."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in imported.items() if name not in read}
    assert unused == {}, f"{path.name}: imported but never read: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_whole_table_transpose(path):
    """`.T` of a whole table is a strided view, so reading it walks one entry
    per row: tables are read along their rows.  A transposed subscripted
    block, such as `m[a:b, rows].T`, is allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "T"
             and isinstance(node.value, (ast.Name, ast.Attribute))]
    assert lines == [], f"{path.name}: .T of a whole table at line(s) {lines}"


REMOVED_ERRORS = {"PreconditionViolated", "AbelianGroup", "NotPrimePowerIndex", "NotPrime",
                  "NotPGroup", "NotCentral", "OrderMismatch", "InvalidPermutation",
                  "NotNormal"}


def test_every_error_class_is_raised():
    """Each class errors.py defines, but for the GroupError base, is raised by
    name somewhere in the library.  A failed hypothesis is a vacuous report,
    an undefined bound is None, a bad parameter is BadParameter and G/Z, the
    one quotient, needs no normality test, so no class in REMOVED_ERRORS is
    named anywhere in the library."""
    defined = {node.name for node in ast.parse((ROOT / "src/zclasses/errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    raised, words = set(), set()
    for text in (path.read_text() for path in SOURCES):
        words.update(re.findall(r"\w+", text))
        raised.update(node.exc.func.id for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                      and isinstance(node.exc.func, ast.Name))
    assert defined - {"GroupError"} <= raised, f"never raised: {defined - raised}"
    assert len(defined) == 8 and not words & REMOVED_ERRORS, words & REMOVED_ERRORS


def test_each_memo_key_has_one_producer():
    """Each ``G._memo("<key>", compute)`` key is a string literal named at
    exactly one call site in the library, so a memoised fact that several
    callers read (the central quotient, G', the pairing table) has one
    function that computes it."""
    sites = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "_memo":
                key = node.args[0]
                assert isinstance(key, ast.Constant) and isinstance(key.value, str), \
                    f"{path.name}:{node.lineno}: memo key is not a string literal"
                sites.setdefault(key.value, []).append(f"{path.name}:{node.lineno}")
    assert {"central_quotient", "derived", "commutator_pairing"} <= set(sites)
    shared = {key: where for key, where in sites.items() if len(where) > 1}
    assert shared == {}, f"memo keys with more than one producer: {shared}"


def test_commutation_has_one_table():
    """The commutator pairing on G/Z is the one table that says which
    elements commute: no module calls `commuting_table`, its n x n view kept
    for outside readers, and no memo key is "commuting"."""
    calls, keys = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "commuting_table":
                    calls.append(f"{path.name}:{node.lineno}")
                if name == "_memo" and isinstance(node.args[0], ast.Constant):
                    keys.append(node.args[0].value)
    assert calls == [], f"commuting_table called at {calls}"
    assert keys and "commuting" not in keys
    zc = importlib.import_module("zclasses")
    assert zc.commutator_pairing is zc.isoclinism.commutator_pairing is zc.core.commutator_pairing


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
