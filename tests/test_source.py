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
    assert len(defined) == 9 and not words & REMOVED_ERRORS, words & REMOVED_ERRORS


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
    assert {"central_quotient", "quotient_table", "derived", "commutator_pairing"} <= set(sites)
    shared = {key: where for key, where in sites.items() if len(where) > 1}
    assert shared == {}, f"memo keys with more than one producer: {shared}"


def _flat_gather(node) -> bool:
    """Whether ``node`` reads a whole multiplication table at flat indices:
    ``np.take(x.mult, i)`` or ``x.mult.take(i)`` with no axis, or ``x.mult.flat``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "flat" and getattr(node.value, "attr", None) == "mult"
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "take"):
        return False
    if getattr(node.func.value, "attr", None) == "mult":                  # x.mult.take(i)
        axis = node.args[1:]        # a positional axis
    elif node.args and getattr(node.args[0], "attr", None) == "mult":     # np.take(x.mult, i)
        axis = node.args[2:]
    else:
        return False
    return not axis and all(kw.arg != "axis" for kw in node.keywords)


def test_commutation_has_one_table():
    """The commutator pairing on G/Z is the one table that says which
    elements commute: no module calls `commuting_table`, its n x n view kept
    for outside readers, and no memo key is "commuting".  It is also the one
    commutator gather: the one flat read of a whole multiplication table is
    inside `commutator_pairing`, and G' is read off the pairing.  Condition
    1, which `is_extraspecial` shares, reads G/Z through G's generators, so
    neither computes G' or the table of G/Z."""
    calls, keys, flat, where = [], [], [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                if name == "commuting_table":
                    calls.append(f"{path.name}:{node.lineno}")
                if name == "_memo" and isinstance(node.args[0], ast.Constant):
                    keys.append(node.args[0].value)
            if _flat_gather(node):
                flat.append(f"{path.name}:{node.lineno}")
        where += [f"{path.name}:{fn.name}" for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn) if _flat_gather(node)]
    assert calls == [], f"commuting_table called at {calls}"
    assert keys and "commuting" not in keys
    assert len(flat) == 1 and where == ["core.py:commutator_pairing"], (flat, where)
    zc = importlib.import_module("zclasses")
    assert zc.commutator_pairing is zc.isoclinism.commutator_pairing is zc.core.commutator_pairing
    for fn in (zc.construct.is_extraspecial, zc.zclass.condition_central_quotient_elementary):
        body = ast.parse(inspect.getsource(fn))
        named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(body)}
        assert not named & {"commutator_subgroup", "quotient_table"}, (fn.__name__, named)


def test_quotient_table_is_read_only_where_quotient_products_are():
    """The table of G/Z is built only where products in G/Z are read: the
    isoclinism checks and `kulkarni_size_check`'s normalizer in G/Z.  The
    conditions, the cells and G' read G/Z through the projection."""
    readers = {f"{path.name}:{top.name}" for path in SOURCES
               for top in ast.parse(path.read_text(), filename=str(path)).body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               for node in ast.walk(top)
               if isinstance(node, ast.Name) and node.id == "quotient_table"}
    others = {r for r in readers if not r.startswith("isoclinism.py:")}
    assert others == {"zclass.py:kulkarni_size_check"}, readers
    assert "isoclinism.py:IsoclinismWitness" in readers, readers


def test_only_the_search_calls_the_search():
    """No check searches for an isoclinism: it writes its isoclinism down or
    is handed one.  Outside `are_isoclinic` and its node `_search`, nothing in
    the library calls either, so the search runs only for a caller who asks."""
    search = {"are_isoclinic", "_search"}
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
                    if name in search:
                        callers.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert callers == {"isoclinism.py:are_isoclinic", "isoclinism.py:_search"}, callers


def test_coset_orders_are_computed_in_one_place():
    """G/Z's element orders are computed once, by `central_quotient`, which
    carries them: the conditions and the isoclinism search read that vector.
    Outside it, only `element_orders` (orders modulo the identity) calls
    `_orders_modulo`."""
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_orders_modulo":
                    callers.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert callers == {"core.py:element_orders", "core.py:central_quotient"}, callers


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes``,
    ``os.open``, or an ``open`` whose mode (a literal argument or ``mode=``)
    writes, appends, creates or updates."""
    fn = call.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if name in {"write_text", "write_bytes"}:
        return True
    if name != "open":
        return False
    if isinstance(fn, ast.Attribute) and getattr(fn.value, "id", None) == "os":
        return True
    modes = [arg.value for arg in call.args + [kw.value for kw in call.keywords if kw.arg == "mode"]
             if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
             and re.fullmatch(r"[rwxabt+]{1,3}", arg.value)]
    return any(set(mode) & set("wax+") for mode in modes)


def test_the_library_has_one_writer():
    """Every file the library writes goes through `core._overwriting`, which
    writes over a file in place: no other function opens a file to write it."""
    writers = {f"{path.name}:{getattr(top, 'name', top.lineno)}" for path in SOURCES
               for top in ast.parse(path.read_text(), filename=str(path)).body
               for node in ast.walk(top) if isinstance(node, ast.Call) and _writes(node)}
    assert writers == {"core.py:_overwriting"}, writers


def test_direct_product_is_a_central_product():
    """A direct product is the central product amalgamating nothing, and one
    code builds product tables: `direct_product` calls `central_product` once,
    with the identity pair, and allocates no table of its own."""
    core = importlib.import_module("zclasses.core")
    body = ast.parse(inspect.getsource(core.direct_product)).body[0].body
    nodes = [node for statement in body for node in ast.walk(statement)]
    products = [node for node in nodes if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "central_product"]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    assert len(products) == 1
    assert [ast.literal_eval(arg) for arg in products[0].args[2:]] == [0, 0]
    assert not names & {"np", "_fill_rows", "GroupTable"}, names


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


def _names_read(path):
    """Every name a script reads: loaded bare names and attribute names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_export_has_a_reader():
    """Each name the package exports is read by the library itself, a demo or
    the benchmark, so no public name lives only for the tests.  A definition
    is not a read, and neither is the export in ``__init__.py``."""
    init = ROOT / "src" / "zclasses" / "__init__.py"
    exported = {alias.asname or alias.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = [p for p in SOURCES if p != init] + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    read = set().union(*map(_names_read, readers))
    assert len(exported) > 60
    assert exported - read == set(), f"exported but read nowhere: {exported - read}"
