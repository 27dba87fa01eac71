import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "zclasses").glob("*.py"))


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
