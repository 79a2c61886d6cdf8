"""Every module and every public name under ``src/adbqc/`` is reached by
something other than the tests.

Modules: each module is parsed with ``ast`` and the import graph is followed
from the module that the ``adbqc`` entry of ``[project.scripts]`` in
``pyproject.toml`` names. Importing a module also runs its parent
packages, relative imports resolve against the importing package, and
``from package import name`` may load the submodule ``package.name``. A
module the graph does not reach is code that only tests run.

Names: every public top-level function or class of ``src/`` must be named
somewhere in ``src/`` or ``bench/`` outside its own definition, and every
public method of a public class must appear there as an attribute. The
check is by name only: any attribute called ``apply`` counts for every
method ``apply``. A string does not count, so a name looked up only with
``getattr`` is flagged.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


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


# ---------------------------------------------------------------------------
# Public names


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST, bool]]:
    """(qualified name, node, is a method) of each public top-level function
    or class of a module, and of each public method of its public classes."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node, False))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{node.name}.{item.name}", item, True)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def name_uses(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """(name, line, is an attribute) of each name a module mentions: bare
    names, imported names and attributes."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses.append((node.id, node.lineno, False))
        elif isinstance(node, ast.ImportFrom):
            uses += [(alias.name, node.lineno, False) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node.lineno, True))
    return uses


def unnamed(defining: dict[str, ast.Module], scanned: dict[str, ast.Module]) -> list[str]:
    """``module:name`` of each public definition in ``defining`` that no
    module of ``scanned`` (keyed alike) names outside the definition itself."""
    uses = {key: name_uses(tree) for key, tree in scanned.items()}
    missing = []
    for key, tree in defining.items():
        for qualname, node, is_method in public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                used == name and (is_attribute or not is_method)
                and not (where == key and line in own)
                for where, found in uses.items()
                for used, line, is_attribute in found
            ):
                missing.append(f"{key}:{qualname}")
    return sorted(missing)


def parsed(paths) -> dict[str, ast.Module]:
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in paths
    }


def test_every_public_name_is_named_outside_the_tests():
    defining = parsed(sorted((SRC / "adbqc").rglob("*.py")))
    scanned = {**defining, **parsed(sorted(BENCH.rglob("*.py")))}
    assert unnamed(defining, scanned) == []


def test_the_check_flags_names_nothing_else_mentions():
    core = """
def used():
    return Tool.make().run

def unused():
    return unused()  # naming itself does not count

def _private():
    pass

class Tool:
    @classmethod
    def make(cls):
        return cls()

    def run(self):
        return self.idle  # another method's body counts for idle

    @property
    def idle(self):
        return 0

    def lonely(self):
        return self.lonely()

    def looked_up(self):
        pass

class Orphan:
    def go(self):
        return Orphan()
"""
    caller = """
from core import used
import core
getattr(core.Tool(), "looked_up")  # a string names nothing
used()
lonely = 1  # a bare name is no attribute, so the method stays unnamed
"""
    modules = {"core": ast.parse(core), "caller": ast.parse(caller)}
    assert unnamed({"core": modules["core"]}, modules) == [
        "core:Orphan", "core:Orphan.go", "core:Tool.lonely", "core:Tool.looked_up",
        "core:unused",
    ]
