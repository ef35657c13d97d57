"""The benchmark's inputs still load and parse.

``perfbench/workloads.py`` writes run configs and CLI argv for the code at
hand; a config key or flag the code no longer takes would fail every
benchmark call. This test builds what each workload writes, without its
reference solves or runs, then loads every config with ``load_config`` and
parses every argv with the CLI's parser. The module is loaded with
bytecode writing off, so nothing is written under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from normdescent import cli, load_dataset, save_matrix
from normdescent.harness import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_workload_config_loads_and_every_argv_parses(tmp_path, monkeypatch, capsys):
    before = sorted(PERFBENCH.rglob("*"))
    wl = load_workloads(monkeypatch)
    calls = []

    persample = wl.PerSample(tmp_path / "persample", seed=1)
    persample.workdir.mkdir()
    persample.setup(cli.main)
    calls += persample.calls()

    # FullBatch's set-up without its three solves: a placeholder gamma and W*
    fullbatch = wl.FullBatch(tmp_path / "fullbatch", seed=1)
    fullbatch.workdir.mkdir()
    wl.Workload.setup(fullbatch, cli.main)
    ds = load_dataset(fullbatch.dataset)
    wstar = fullbatch.workdir / "wstar.txt"
    save_matrix(np.ones((ds.k, ds.d)), wstar)
    fullbatch.refs = {norm: (0.1, str(wstar)) for norm, _ in wl.REFSOLVE_TOLS}
    calls += fullbatch.calls()

    calls += wl.RefSolve(tmp_path / "refsolve", seed=1).calls()
    capsys.readouterr()  # the set-up's gen-data output

    commands = []
    for call in calls:
        args = cli._parser().parse_args(call.argv)
        commands.append(args.command)
        if args.command != "margin":
            cfg = load_config(args.config)
            assert cfg.opt.seed == 1
    assert commands == ["persample"] * 3 + ["train"] * 3 + ["margin"] * 3
    assert sorted(PERFBENCH.rglob("*")) == before
