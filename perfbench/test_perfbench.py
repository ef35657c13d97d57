"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import run_round  # noqa: E402


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _layers():
    return json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]


@pytest.mark.parametrize(
    "binding,attr", [(b, a) for b, attrs in tracer.WRAP.items() for a in attrs]
)
def test_every_wrapped_name_resolves_to_a_callable(binding, attr):
    mod = importlib.import_module(f"normdescent.{binding}")
    assert callable(getattr(mod, attr, None)), f"normdescent.{binding}.{attr} is gone; update tracer.WRAP"


def test_install_wraps_each_binding_and_uninstall_restores_it():
    import numpy as np

    from normdescent import harness, linalg
    from normdescent.linalg import NormSpec

    original = harness.dual_norm
    tr = tracer.Tracer()
    tr.install()
    try:
        assert harness.dual_norm is not original
        harness.dual_norm(np.diag([3.0, 1.0]), NormSpec.parse("sch:inf"))
    finally:
        tr.uninstall()
    assert harness.dual_norm is original and linalg.jacobi_svd.__name__ == "jacobi_svd"
    names = [tr.info[i][0] for i in tr.names]
    # dual_norm reaches matrix_norm and the SVD through linalg's own namespace
    assert names == ["harness.dual_norm", "linalg.matrix_norm", "linalg.jacobi_svd"]
    assert list(tr.parents) == [-1, 0, 1]


def test_self_times_subtract_the_union_of_child_spans():
    # root [0, 10] has children a [1, 4] (with grandchild [2, 3]), b [5, 6],
    # and c [5.5, 7] overlapping b; span 0 belongs to an earlier round
    starts = array("d", [-5.0, 0.0, 1.0, 2.0, 5.0, 5.5])
    ends = array("d", [-4.0, 10.0, 4.0, 3.0, 6.0, 7.0])
    parents = array("l", [-1, -1, 1, 2, 1, 1])
    got = tracer.self_times(starts, ends, parents, 1, 6)
    assert got == pytest.approx([10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5])


def test_percentile_needs_ten_samples_beyond_it():
    assert tracer._percentile_us([1e-6] * 999, 0.99) == 0.0
    # 1000 samples: rank 990, with ten samples beyond it
    assert tracer._percentile_us([i * 1e-6 for i in range(1, 1001)], 0.99) == pytest.approx(990.0)


def test_traced_persample_rounds_repeat_their_counts(tmp_path, monkeypatch):
    import normdescent.cli as cli

    monkeypatch.setattr(workloads, "PERSAMPLE_EPOCHS", 20)
    wl = workloads.PerSample(tmp_path, seed=5)
    wl.setup(cli.main)
    calls = wl.calls()
    tr = tracer.Tracer()
    main = tr.wrap(cli.main, "cli", "main")
    per_round = []
    for _ in range(2):
        lo = len(tr)
        tr.install()
        try:
            r = run_round(main, calls)
        finally:
            tr.uninstall()
        assert r.failures == [] and r.attempted == 3
        per_round.append(tracer.body_metrics(tr, lo, len(tr), r.wall_s, r.csv_bytes))
    first, second = per_round
    for name in ("optimizer.steps", "optimizer.reshuffle_calls", "linalg.svd_calls", "steepest.calls.schinf",
                 "reference.fw_iters.ew2", "harness.metric_rows", "harness.csv_bytes", "cli.calls"):
        assert first[name] == second[name], name
    assert first["optimizer.steps"] == 3 * 20 * wl.n
    # the invariant check maps every per-sample gradient a second time
    assert first["steepest.calls_per_step"] > 1.0
    measured = set(first) | set(tracer.setup_metrics(tr, 0, 0)) | {"trace.overhead_ratio"}
    assert measured == {m["name"] for m in _bench()["per_layer"]}


def test_benchmark_json_matches_workloads_and_layer_map():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"].strip() for w in bench["workloads"])
    layers = _layers()
    mapped = [m for layer in layers.values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    for name, layer in layers.items():
        assert layer["moves"] and layer["no_move_on"], name
        assert all(m.startswith(name + ".") for m in layer["metrics"]), name
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "wall_s", "steps_per_s", "peak_rss_mb"}


def test_recorded_gamma_matches_a_fresh_solve(tmp_path):
    import normdescent.cli as cli

    wl = workloads.RefSolve(tmp_path, seed=3)
    wl.setup(cli.main)
    r = run_round(cli.main, wl.calls())
    assert r.failures == [] and r.steps > 0
