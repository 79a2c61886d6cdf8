"""Every tolerance lives in the one table at the top of ``qsim.py``.

This parses each ``.py`` file under ``src/`` and fails on two things: a
numeric literal whose magnitude lies strictly between 0 and 1e-6 anywhere
but in a module-level UPPER_CASE assignment of ``qsim.py`` (the table), and
a function parameter named ``atol``, ``tol`` or ``branch_budget``, through
which a caller could loosen a check's threshold. It also fails on a table
entry (a public UPPER_CASE name assigned at the top level of ``qsim.py``)
that no code under ``src/`` reads, so a threshold cannot outlive the check
that compared with it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
TABLE_MODULE = ROOT / "src" / "adbqc" / "qsim.py"
SMALLEST_FREE_LITERAL = 1e-6
KNOB_NAMES = frozenset({"atol", "tol", "branch_budget"})


def _table_nodes(tree: ast.Module) -> set[int]:
    """ids of the nodes inside module-level UPPER_CASE constant assignments."""
    inside: set[int] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and all(
            isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets
        ):
            inside |= {id(node) for node in ast.walk(stmt)}
    return inside


def tolerance_findings(tree: ast.Module, is_table_module: bool) -> list[str]:
    allowed = _table_nodes(tree) if is_table_module else set()
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and type(node.value) in (int, float, complex)
            and 0 < abs(node.value) < SMALLEST_FREE_LITERAL
            and id(node) not in allowed
        ):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args + node.kwonlyargs
            params += [a for a in (node.vararg, node.kwarg) if a is not None]
            found += [(a.lineno, f"parameter {a.arg}") for a in params if a.arg in KNOB_NAMES]
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_tolerances_live_in_the_table(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert tolerance_findings(tree, path == TABLE_MODULE) == []


def test_the_check_flags_stray_literals_and_knobs():
    sample = ast.parse(
        "LIMIT = 1e-9\n"
        "scale = 2e-7\n"
        "def f(x, atol=1e-9, *, steps=3, **tol):\n"
        "    return x < 1e-12 or x > 0.5 or x == 1e-6 or (lambda branch_budget: 0)\n"
    )
    knobs_and_inline = [
        "literal 2e-07 (line 2)",
        "literal 1e-09 (line 3)",
        "parameter atol (line 3)",
        "parameter tol (line 3)",
        "literal 1e-12 (line 4)",
        "parameter branch_budget (line 4)",
    ]
    assert tolerance_findings(sample, is_table_module=True) == knobs_and_inline
    assert tolerance_findings(sample, is_table_module=False) == [
        "literal 1e-09 (line 1)", *knobs_and_inline
    ]


def unread_table_entries(table: ast.Module, trees: list[ast.Module]) -> list[str]:
    """Public UPPER_CASE names assigned at the top of ``table`` that no tree
    reads, as a bare name or as a module attribute."""
    entries = [
        target.id
        for stmt in table.body
        if isinstance(stmt, ast.Assign)
        for target in stmt.targets
        if isinstance(target, ast.Name) and target.id.isupper()
        and not target.id.startswith("_")
    ]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in entries if name not in read]


def test_every_table_entry_is_read():
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES]
    table = trees[SOURCES.index(TABLE_MODULE)]
    assert unread_table_entries(table, trees) == []


def test_the_check_flags_unread_entries():
    table = ast.parse(
        "USED = 1e-9\n"
        "VIA_MODULE = 1e-10\n"
        "IMPORTED_ONLY = 1e-12\n"
        "_PRIVATE = 2\n"
        "lower = 3\n"
    )
    reader = ast.parse(
        "from .qsim import IMPORTED_ONLY, USED\n"
        "from . import qsim\n"
        "ok = x < USED or x < qsim.VIA_MODULE\n"
    )
    assert unread_table_entries(table, [table, reader]) == ["IMPORTED_ONLY"]
    assert unread_table_entries(table, [table]) == ["USED", "VIA_MODULE", "IMPORTED_ONLY"]
