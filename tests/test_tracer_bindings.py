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


SRC = Path(__file__).resolve().parents[1] / "src" / "normdescent"

# bindings the tracer wraps although their module never calls them; the
# benchmark change of ROADMAP item 1 drops this one from WRAP
UNCALLED_BINDINGS = {("harness", "steepest_map")}


def binding_uses(module: str, name: str) -> int:
    """How often ``normdescent.<module>``'s own code reaches ``name``.

    An imported name counts every read of it; a name the module defines
    counts the calls from its other functions, not from its own body.
    """
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    imported = any(
        (alias.asname or alias.name) == name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    if imported:
        return sum(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load) for n in ast.walk(tree))
    return sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name != name
        for n in ast.walk(fn)
    )


def test_every_wrapped_binding_is_called_by_its_module():
    # a binding nothing reaches leaves its per-layer metric silently empty
    uncalled = sorted(
        (module, name)
        for module, names in tracer_wrap().items()
        for name in names
        if (module, name) not in UNCALLED_BINDINGS and not binding_uses(module, name)
    )
    assert not uncalled
    assert all(not binding_uses(module, name) for module, name in UNCALLED_BINDINGS)


@pytest.mark.parametrize("norm", ["sch:1", "sch:1.5", "sch:2", "sch:3", "sch:inf", "ew:1", "ew:2", "ew:inf"])
def test_steepest_map_takes_one_svd_through_steepest_at_schatten_norms(monkeypatch, rng, norm):
    # linalg.svd_calls counts the map's SVD only through this binding
    from normdescent import steepest

    calls = count_calls(monkeypatch, steepest, ("jacobi_svd",))
    spec = NormSpec.parse(norm)
    steepest.steepest_map(rng.standard_normal((4, 3)), spec)
    assert calls["jacobi_svd"] == (1 if spec.family == "sch" else 0)


def test_every_wrapped_binding_is_callable():
    wrap = tracer_wrap()
    assert wrap
    for module, attrs in wrap.items():
        mod = importlib.import_module(f"normdescent.{module}")
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), f"normdescent.{module}.{attr}"


@pytest.mark.parametrize("norm", ["ew:inf", "ew:2", "ew:3", "sch:inf"])
def test_harness_bias_bindings_take_a_norm_spec(norm):
    # the tracer wraps both on harness; persample calls them with the run's norm
    from normdescent import Dataset, harness

    x = np.array([[1.0, 0.0, 2.0], [0.0, 0.5, 0.0], [0.0, 0.0, -1.0]])  # d = 3, k = 2
    ds = Dataset(x, np.array([0, 1, 0]), 2)
    spec = NormSpec.parse(norm)
    for out in (harness.bias_matrix(ds, spec), harness.canonical_update_matrix(ds, 1, spec)):
        assert out.shape == (ds.k, ds.d) and np.isfinite(out).all() and out.any()


def test_schatten_dual_norm_reaches_the_svd_through_linalg(monkeypatch, rng):
    # the tracer's dual_norm -> matrix_norm -> jacobi_svd span chain needs
    # matrix_norm to look jacobi_svd up in linalg's namespace at call time
    calls = []
    real = linalg.jacobi_svd
    monkeypatch.setattr(linalg, "jacobi_svd", lambda a: calls.append(a) or real(a))
    g = rng.standard_normal((4, 3))
    nuclear = float(np.linalg.svd(g, compute_uv=False).sum())
    assert dual_norm(g, NormSpec("sch", math.inf)) == pytest.approx(nuclear, rel=1e-12)
    assert len(calls) >= 1


def count_calls(monkeypatch, module, names) -> dict:
    """Replace each ``module.<name>`` with a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "b,momentum,vr",
    [(12, False, False), (12, False, True), (4, False, False), (4, True, False), (4, False, True),
     (1, False, False), (1, False, True)],
    ids=["full", "full-vr", "mini", "mini-momentum", "mini-vr", "b1", "b1-vr"],
)
def test_each_step_reaches_grad_and_the_map_through_optimizer(monkeypatch, b, momentum, vr):
    # the tracer times model.grad_* and steepest.* only through these bindings,
    # and labels a grad call by its batch's len (b1 for one sample)
    from normdescent import ALL, OptimizerConfig, Schedule, optimizer, run
    from tests.conftest import divisible_dataset

    calls = count_calls(monkeypatch, optimizer, ("grad", "steepest_map"))
    sizes, counted = [], optimizer.grad
    monkeypatch.setattr(optimizer, "grad",
                        lambda w, ds, batch, kind: sizes.append(ds.n if batch is ALL else len(batch))
                        or counted(w, ds, batch, kind))
    ds = divisible_dataset(np.random.default_rng(6), k=3, d=2, n=12)
    epochs = 5
    cfg = OptimizerConfig(batch_size=b, beta1=0.9 if momentum else 0.0, vr_on=vr,
                          schedule=Schedule(0.5, 0.5, 0.5), epochs=epochs, seed=2,
                          norm=NormSpec("ew", 2.0))
    run(cfg, ds, np.zeros((3, 2)))
    steps = epochs * ds.n // b
    assert calls["steepest_map"] == steps
    # with VR, a step takes the batch gradient at W and at the snapshot, and
    # every epoch takes the snapshot's full gradient
    assert calls["grad"] == (2 * steps + epochs if vr else steps)
    m = ds.n // b
    assert sizes == (([ds.n] + [b] * 2 * m) if vr else [b] * m) * epochs


@pytest.mark.parametrize("vr", [False, True], ids=["full", "full-vr"])
def test_full_batch_gradients_carry_the_tracers_full_label(monkeypatch, vr):
    # the tracer labels a grad call "full" when its batch is ALL or holds all
    # n samples, and model.grad_us.full times full-batch runs by that label
    from normdescent import ALL, OptimizerConfig, Schedule, optimizer, run
    from tests.conftest import divisible_dataset

    assert "grad" in tracer_wrap()["optimizer"]
    batches, real = [], optimizer.grad
    monkeypatch.setattr(optimizer, "grad", lambda *args: batches.append(args[2]) or real(*args))
    ds = divisible_dataset(np.random.default_rng(6), k=3, d=2, n=12)
    cfg = OptimizerConfig(batch_size=ds.n, beta1=0.0, vr_on=vr,
                          schedule=Schedule(0.5, 0.5, 0.5), epochs=5, seed=2,
                          norm=NormSpec("ew", 2.0))
    run(cfg, ds, np.zeros((3, 2)))
    assert len(batches) == (15 if vr else 5)
    assert all(b is ALL or len(b) == ds.n for b in batches)
    assert np.shares_memory(ds.full.x, ds.x)


def test_each_metric_row_reaches_the_metrics_through_harness(monkeypatch, tmp_path):
    from normdescent import harness, read_csv, train_cmd
    from tests.test_harness import write_config

    names = ("margin_report", "loss_fn", "proxy_g", "dual_norm", "frobenius_cosine")
    calls = count_calls(monkeypatch, harness, names)
    out = train_cmd(write_config(tmp_path, gamma=0.5, wbar_norm="ew:inf"))
    rows = read_csv(out)["t"].size
    assert rows == 6
    assert calls == dict.fromkeys(names, rows)
