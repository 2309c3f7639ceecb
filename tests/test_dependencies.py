"""Guards over the package source.

complerank has no runtime dependencies: it imports only the standard library and itself.  And it
ships no dead public API: each public top-level function or class is used by the package itself.
"""

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "complerank"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_top_level_names(path):
    """The top-level package of every absolute import in the module at ``path``."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_stdlib():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | {"complerank"}
    foreign = {
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in modules
        for name in imported_top_level_names(path)
        if name not in allowed
    }
    assert not foreign, sorted(foreign)


def test_every_public_top_level_name_is_used_in_the_package():
    """A public function or class that no module names (as a name, an attribute or an import) is dead
    API.  Reference code that only tests call belongs in ``tests/oracles.py``."""
    trees = {path: parse(path) for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    )
    assert not unused, unused


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []
