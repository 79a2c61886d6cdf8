"""Every imported name in the package and the tests is used.

No linter ships with the toolchain, so this parses each ``.py`` file under
``src/`` and ``tests/`` and fails on a name that an import binds but the
module never references. ``__future__`` imports and the re-exports of a
package ``__init__.py`` are exempt; names listed in ``__all__`` count as
referenced.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = sorted((name, line) for name, line in bound.items() if name not in used)
    return [f"{name} (line {line})" for name, line in unused]


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_the_check_flags_an_unused_import():
    tree = ast.parse("import math\nfrom os import path as p, sep\nprint(sep)\n")
    assert unused_imports(tree) == ["math (line 1)", "p (line 2)"]
