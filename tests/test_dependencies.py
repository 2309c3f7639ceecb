"""Guards over the package source and the project settings.

complerank has no runtime dependencies: it imports only the standard library and itself.  It
ships no dead public API: each public top-level function or class is used by the package itself.
And its Python floor is stated once, in ``pyproject.toml``, and repeated only on README's install line.
"""

import ast
import re
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

import test_cli

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


def pyproject():
    with (REPO_ROOT / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_pyproject_declares_no_dependencies():
    assert pyproject().get("dependencies", []) == []


def test_python_floor_is_stated_once():
    """README's install line names the ``requires-python`` floor, this interpreter meets it, and no
    interpreter below it reruns the goldens."""
    floor = re.fullmatch(r">=3\.(\d+)", pyproject()["requires-python"])
    assert floor, pyproject()["requires-python"]
    minor = int(floor[1])
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"^Python ≥ (\S+); no runtime dependencies\.$", readme, re.MULTILINE) == [f"3.{minor}"]
    assert sys.version_info >= (3, minor)
    (pythons,) = [
        mark.args[1]
        for mark in test_cli.TestRunCommand.test_goldens_hold_under_other_pythons.pytestmark
        if mark.name == "parametrize"
    ]
    assert [python for python in pythons if int(python.removeprefix("python3.")) < minor] == []


def test_a_failing_property_fails_only_its_own_test(tmp_path):
    """On failure hypothesis imports libcst, which warns on import; the test settings must not make that
    warning an internal error, which would stop the run before the next test."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @given(st.integers())
            @settings(database=None)
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        ),
        encoding="utf-8",
    )
    settings_file = str(REPO_ROOT / "pyproject.toml")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", settings_file, "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
