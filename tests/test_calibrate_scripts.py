"""The calibration scripts at the repository root are run by hand and no
test executes them; parsing them here keeps their ``gofa`` imports in step
with the package."""

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted(Path(__file__).resolve().parents[1].glob("calibrate_c*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_every_gofa_import_resolves(script):
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gofa":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []
