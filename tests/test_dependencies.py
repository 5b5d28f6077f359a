"""The package runs on the standard library and numpy alone."""

import ast
import re
import sys
from pathlib import Path

import pytest

import gofa

PACKAGE = Path(gofa.__file__).parent
ALLOWED = {"numpy", "gofa"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_third_party_import_but_numpy():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        extra = imported_modules(path) - ALLOWED - set(sys.stdlib_module_names)
        if extra:
            found[str(path.relative_to(PACKAGE))] = sorted(extra)
    assert found == {}


def test_declared_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps] == ["numpy"]
