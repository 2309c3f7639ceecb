"""complerank has no runtime dependencies: it imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "complerank"


def imported_top_level_names(path):
    """The top-level package of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
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


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []
