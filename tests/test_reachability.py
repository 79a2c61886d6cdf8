"""Every module under ``src/adbqc/`` is reachable from the console script.

This parses each module with ``ast`` and follows the import graph from the
module that the ``adbqc`` entry of ``[project.scripts]`` in
``pyproject.toml`` names. Importing a module also runs its parent
packages, relative imports resolve against the importing package, and
``from package import name`` may load the submodule ``package.name``. A
module the graph does not reach is code that only tests run.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(tree: ast.Module, name: str, is_package: bool) -> set[str]:
    """Every module name an import in module ``name`` may load."""
    package = name.split(".") if is_package else name.split(".")[:-1]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + ([node.module] if node.module else []))
            found.add(target)
            found |= {f"{target}.{alias.name}" for alias in node.names}
    return found


def unreached(modules: dict[str, tuple[ast.Module, bool]], entry: str) -> list[str]:
    """Names in ``modules`` (name -> (tree, is_package)) that importing
    ``entry`` never loads."""
    seen: set[str] = set()
    todo = [entry]
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        parts = name.split(".")
        todo += [".".join(parts[:i]) for i in range(1, len(parts))]
        tree, is_package = modules[name]
        todo += imported_modules(tree, name, is_package)
    return sorted(set(modules) - seen)


def console_script_module() -> str:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["adbqc"]
    return entry.split(":")[0]


def test_every_module_is_reached_from_the_console_script():
    modules = {
        module_name(path): (
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
            path.name == "__init__.py",
        )
        for path in sorted((SRC / "adbqc").rglob("*.py"))
    }
    entry = console_script_module()
    assert entry in modules
    assert unreached(modules, entry) == []


def test_the_check_flags_modules_nothing_imports():
    sample = {
        "pkg": "",
        "pkg.cli": "from . import core\nfrom .sub.leaf import f\n",
        "pkg.core": "import pkg.util\n",
        "pkg.util": "",
        "pkg.sub": "",  # reached only as the parent of pkg.sub.leaf
        "pkg.sub.leaf": "def f():\n    from ..late import g\n",
        "pkg.late": "",
        "pkg.orphan": "from .core import x\n",  # imports, but is never imported
        "pkg.sub.lonely": "",
    }
    packages = {"pkg", "pkg.sub"}
    modules = {name: (ast.parse(text), name in packages) for name, text in sample.items()}
    assert unreached(modules, "pkg.cli") == ["pkg.orphan", "pkg.sub.lonely"]
    assert unreached(modules, "pkg.orphan") == [
        "pkg.cli", "pkg.late", "pkg.sub", "pkg.sub.leaf", "pkg.sub.lonely",
    ]
