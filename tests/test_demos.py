"""Every name a demo imports from the package still exists.

The demos are scripts, not tests, so an API removal would otherwise only
show when one is run by hand. Each demo is parsed, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path):
    """(module, name) for each ``from normdescent[.sub] import name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "normdescent"
        for alias in node.names
    ]


def test_every_demo_is_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = package_imports(demo)
    assert names, f"{demo.name} imports nothing from normdescent"
    missing = [f"{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
