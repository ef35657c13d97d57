"""The bindings the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` replaces ``normdescent.<module>.<attr>`` for every
pair in its ``WRAP`` table and raises on a missing name, so removing or
renaming one of them breaks the benchmark. ``WRAP`` is read from the source
with ``ast`` rather than imported, so these tests write nothing under
``perfbench/``.
"""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from normdescent import NormSpec, dual_norm, linalg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_wrap() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAP" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no WRAP table")


def test_every_wrapped_binding_is_callable():
    wrap = tracer_wrap()
    assert wrap
    for module, attrs in wrap.items():
        mod = importlib.import_module(f"normdescent.{module}")
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), f"normdescent.{module}.{attr}"


def test_schatten_dual_norm_reaches_the_svd_through_linalg(monkeypatch, rng):
    # the tracer's dual_norm -> matrix_norm -> jacobi_svd span chain needs
    # schatten_norm to look jacobi_svd up in linalg's namespace at call time
    calls = []
    real = linalg.jacobi_svd
    monkeypatch.setattr(linalg, "jacobi_svd", lambda a: calls.append(a) or real(a))
    g = rng.standard_normal((4, 3))
    nuclear = float(np.linalg.svd(g, compute_uv=False).sum())
    assert dual_norm(g, NormSpec("schatten", math.inf)) == pytest.approx(nuclear, rel=1e-12)
    assert len(calls) >= 1
