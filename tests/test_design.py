"""The package keeps zero runtime dependencies.

Every module under `src/lieverify` imports only the standard library or the
package itself, and `pyproject.toml` declares no dependencies.
"""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieverify"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree: ast.Module):
    """(top-level module name, line) of every import; None for a relative one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield top, node.lineno


def test_package_has_modules():
    assert PACKAGE / "core.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_intra_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        (name, line)
        for name, line in _imports(tree)
        if name is not None and name != "lieverify" and name not in sys.stdlib_module_names
    ]
    assert foreign == [], f"{path.name} imports outside the standard library"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
