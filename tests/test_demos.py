"""Every name a demo imports from the package still exists, and the fast
demos run.

The demos are scripts, not tests, so an API removal would otherwise only
show when one is run by hand. Each demo is parsed: every name it imports
from the package must exist, and so must every ``name.attr`` it reads from
such a name and every keyword it passes when calling one. Demos 01, 05 and 06
(a few seconds each) also run in a child process and must exit 0, and the
stdout of 01 and 05 must keep its sha256. Those digests were recorded with
numpy 2.4.6 and OpenBLAS 0.3.31 and depend on the numpy version, BLAS build
and thread count as the pins in ``test_reproducibility.py`` do. Demo 06
prints its temporary directory, so only its exit code is checked. Demos
02-04 take 9-30 s each and are run by hand.
"""

import ast
import hashlib
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normdescent

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# demo -> sha256 of its stdout, or None where the output names a temporary directory
FAST_DEMOS = {
    "01_norm_geometry.py": "35c583ab60f315421af62d6d07b1e2d3887ffcdb44cb69ee5c190a4f6e917319",
    "05_per_sample_bias.py": "5919ac6634f7b81cd6cf2215a693a00e021f50c48f24bb3f93619c9b0446f534",
    "06_cli_workflow.py": None,
}


def package_imports(path):
    """(module, name) for each ``from normdescent[.sub] import name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "normdescent"
        for alias in node.names
    ]


def unresolved_uses(path):
    """Each ``name.attr`` and ``name(keyword=...)`` in ``path``, for a name the
    demo imports from the package, that the imported object does not have."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "normdescent"
        for alias in node.names
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            if not hasattr(bound[node.value.id], node.attr):
                out.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in bound:
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            try:
                inspect.signature(bound[node.func.id]).bind_partial(**dict.fromkeys(keywords))
            except TypeError as exc:
                out.append(f"{node.func.id}(...) line {node.lineno}: {exc}")
    return out


def test_every_demo_is_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = package_imports(demo)
    assert names, f"{demo.name} imports nothing from normdescent"
    missing = [f"{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
    assert unresolved_uses(demo) == []


@pytest.mark.parametrize("name", sorted(FAST_DEMOS))
def test_fast_demo_runs(tmp_path, name):
    src = str(Path(normdescent.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env["TMPDIR"] = str(tmp_path)  # demo 06 works in a temporary directory
    proc = subprocess.run(
        [sys.executable, str(DEMOS[0].parent / name)], capture_output=True, cwd=tmp_path, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    if FAST_DEMOS[name] is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == FAST_DEMOS[name]
