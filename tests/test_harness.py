import argparse
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from normdescent import (
    CSV_HEADER,
    ConfigError,
    Dataset,
    SkewedSpec,
    fit_rate,
    gen_skewed,
    load_dataset,
    persample_cmd,
    read_csv,
    save_dataset,
    save_matrix,
    sweep_cmd,
    train_cmd,
)
from normdescent import cli, data, harness, optimizer, reference
from normdescent.cli import EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_NUMERIC, EXIT_OK, main as cli_main
from normdescent.harness import load_config


def toy_dataset_file(tmp_path, name="toy.txt"):
    x = np.array([[1.0, -1.0, 0.8, -0.9], [0.2, -0.1, -0.3, 0.4]])
    y = np.array([0, 1, 0, 1])
    ds = Dataset(x, y, 2)
    path = tmp_path / name
    save_dataset(ds, path)
    return str(path)


def skewed_dataset_file(tmp_path):
    """Orthogonal scale-skewed data (k = 3, n = 5), as persample requires."""
    x = np.zeros((3, 5))
    y = np.array([0, 1, 2, 0, 1])
    for i, a in enumerate([1.3, 0.4, 2.2, 0.9, 1.7]):
        x[y[i], i] = a
    ds = Dataset(x, y, 3)
    path = tmp_path / "skew.txt"
    save_dataset(ds, path)
    return str(path)


def cancel_dataset_file(tmp_path):
    """Each class holds x and -x (d n k = 2 4 2): no W separates it, and its
    canonical terms cancel, so W-bar is zero."""
    x = np.array([[1.0, -1.0, 0.3, -0.3], [0.5, -0.5, 1.0, -1.0]])
    path = tmp_path / "cancel.txt"
    save_dataset(Dataset(x, np.array([0, 0, 1, 1]), 2), path)
    return str(path)


def child_env():
    """Environment for a CLI child process that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "norm": "ew:2",
        "loss": "cross_entropy",
        "batch_size": 4,
        "momentum": False,
        "beta1": 0.0,
        "vr": False,
        "c": 0.5,
        "a": 0.5,
        "eta0": 0.5,
        "epochs": 30,
        "seed": 4,
        "dataset_path": toy_dataset_file(tmp_path),
        "w0": "zeros",
        "out_csv": str(tmp_path / "out.csv"),
        "log_every": 5,
        "margin_tol": 0.02,
        "margin_iters": 20000,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def fail_step_at(monkeypatch, t_fail):
    """Make the optimizer's t_fail-th step raise FloatingPointError."""
    real_step = optimizer.step

    def step(state, *args):
        if state.t + 1 == t_fail:
            raise FloatingPointError("injected")
        return real_step(state, *args)

    monkeypatch.setattr(optimizer, "step", step)


def all_parsers() -> list[argparse.ArgumentParser]:
    """``cli.build_parser()`` and every subparser nested in it."""

    def walk(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    yield from walk(child)

    return list(walk(cli.build_parser()))


# the JSON types each typed config key accepts
_ACCEPTED_TYPES = {
    **dict.fromkeys(("momentum", "vr"), (bool,)),
    **dict.fromkeys(("batch_size", "epochs", "seed", "log_every", "margin_iters"), (int,)),
    **dict.fromkeys(("beta1", "c", "a", "eta0", "margin_tol"), (int, float)),
    "gamma": (int, float, type(None)),
    **dict.fromkeys(("norm", "loss", "dataset_path", "w0", "out_csv"), (str,)),
    **dict.fromkeys(("wstar_path", "wbar_norm"), (str, type(None))),
}


class TestTrainCmd:
    def test_smoke_writes_header_and_rows(self, tmp_path):
        out = train_cmd(write_config(tmp_path))
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) >= 2

    def test_minimal_single_epoch_config(self, tmp_path):
        out = train_cmd(write_config(tmp_path, name="mini.json", epochs=1, log_every=1,
                                     out_csv=str(tmp_path / "mini.csv")))
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2  # one full-batch step, logged once

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        first = open(train_cmd(cfg), "rb").read()
        second = open(train_cmd(cfg), "rb").read()
        assert first == second

    @pytest.mark.parametrize("momentum", [False, True], ids=["plain", "momentum"])
    def test_mini_batch_gap_is_measured_against_gamma(self, tmp_path, momentum):
        # b = 20 of n = 200: the effective margins are far below zero here,
        # so only gamma itself is a target the gap can approach
        ds = data.gen_gaussian(data.GaussianSpec(k=10, per_class=20, d=5, sigma=0.1, seed=12345))
        save_dataset(ds, tmp_path / "gauss.txt")
        gamma = 0.1124209
        cfg = write_config(tmp_path, dataset_path=str(tmp_path / "gauss.txt"), batch_size=20,
                           momentum=momentum, beta1=0.99 if momentum else 0.0, epochs=3, gamma=gamma)
        cols = read_csv(train_cmd(cfg))
        assert cols["t"].size == 6
        assert np.array_equal(cols["gap_to_gamma"], gamma - cols["norm_margin"])
        assert np.abs(cols["gap_to_gamma"] + cols["norm_margin"] - gamma).max() <= 1e-15

    def test_norm_exponent_that_overflows_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, norm="ew:1e400")
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: norm: bad norm spec 'ew:1e400'; expected 'ew:p' or 'sch:p'\n"
        assert not (tmp_path / "out.csv").exists()

    def test_subnormal_wstar_gives_the_unit_scale_cosine(self, tmp_path):
        # equal-magnitude W* entries are exact at any scale, and so is the cosine
        cos = {}
        for scale in (1.0, 1e-320):
            save_matrix(scale * np.array([[1.0, -1.0], [-1.0, -1.0]]), tmp_path / "wstar.txt")
            cfg = write_config(tmp_path, gamma=0.5, wstar_path=str(tmp_path / "wstar.txt"))
            cos[scale] = read_csv(train_cmd(cfg))["cos_wstar"]
        assert np.abs(cos[1e-320] - cos[1.0]).max() <= 1e-15

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = write_config(tmp_path, wildcard=True)
        with pytest.raises(ConfigError):
            train_cmd(cfg)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"norm": "ew:2"}))
        with pytest.raises(ConfigError):
            train_cmd(str(path))

    @pytest.mark.parametrize(
        "key,value,ok",
        [
            ("momentum", "false", False),
            ("momentum", 0, False),
            ("vr", "true", False),
            ("vr", None, False),
            ("batch_size", 1.9, False),
            ("batch_size", 4.0, False),
            ("batch_size", True, False),
            ("epochs", "30", False),
            ("seed", 4.0, False),
            ("log_every", 5.0, False),
            ("margin_iters", 2e4, False),
            ("c", "0.5", False),
            ("beta1", False, False),
            ("gamma", "0.3", False),
            ("norm", 2, False),
            ("loss", 0, False),
            ("loss", "hinge", False),
            ("dataset_path", 1, False),
            ("w0", 0, False),
            ("out_csv", 5, False),
            ("wstar_path", 3, False),
            ("wbar_norm", 1, False),
            ("c", 1, True),
            ("beta1", 0, True),
            ("gamma", 1, True),
            ("gamma", None, True),
            ("wstar_path", None, True),
            ("wbar_norm", None, True),
        ],
    )
    def test_config_value_types(self, tmp_path, capsys, monkeypatch, key, value, ok):
        monkeypatch.chdir(tmp_path)  # a relative out_csv must not land in the checkout
        cfg = write_config(tmp_path, **{"epochs": 2, "log_every": 1, key: value})
        rc = cli_main(["train", "--config", cfg])
        err = capsys.readouterr().err
        if ok:
            assert rc == EXIT_OK
        else:
            assert rc == EXIT_CONFIG
            assert err.startswith("error: ") and f"{key} must be" in err
            with pytest.raises(ConfigError):
                train_cmd(cfg)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        key=st.sampled_from(sorted(_ACCEPTED_TYPES)),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4)
        ),
    )
    def test_config_typing_property(self, tmp_path, key, value):
        # a value of any JSON type the key does not accept is rejected by type
        assume(type(value) not in _ACCEPTED_TYPES[key])
        cfg = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be"):
            load_config(cfg)

    def test_optional_key_defaults(self, tmp_path):
        path = tmp_path / "bare.json"
        raw = json.loads(open(write_config(tmp_path)).read())
        for key in ("log_every", "margin_tol", "margin_iters"):
            del raw[key]
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        assert (cfg.log_every, cfg.margin_tol, cfg.margin_iters) == (10, 1e-3, 120_000)
        assert cfg.gamma is None and cfg.wstar is None and cfg.wbar_norm is None

    @pytest.mark.parametrize(
        "key,literal",
        [("gamma", "NaN"), ("c", "Infinity"), ("gamma", "-Infinity"), ("margin_tol", "1e400")],
    )
    def test_non_finite_json_numbers_rejected(self, tmp_path, capsys, monkeypatch, key, literal):
        # json.load accepts these literals (1e400 overflows to inf); the
        # config must not
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **{key: "__literal__"})
        with open(cfg) as fh:
            text = fh.read().replace('"__literal__"', literal)
        with open(cfg, "w") as fh:
            fh.write(text)
        rc = cli_main(["train", "--config", cfg])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: non-finite JSON number {literal}\n"
        assert not (tmp_path / "out.csv").exists()
        with pytest.raises(ConfigError):
            load_config(cfg)

    @pytest.mark.parametrize("key", ["c", "gamma"])
    def test_integer_too_large_for_a_float_rejected(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **{key: "__literal__"})
        with open(cfg) as fh:
            text = fh.read().replace('"__literal__"', "1" + "0" * 400)
        with open(cfg, "w") as fh:
            fh.write(text)
        (tmp_path / "out.csv").write_text("previous run\n")
        rc = cli_main(["train", "--config", cfg])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {key} is an integer too large for a float\n"
        assert (tmp_path / "out.csv").read_text() == "previous run\n"

    def test_duplicated_key_rejected(self, tmp_path, capsys, monkeypatch):
        # json.load would keep each repeated key's last value: 2 epochs at sch:inf
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, epochs=20, norm="ew:2")
        with open(cfg) as fh:
            text = fh.read().rstrip()[:-1] + ', "epochs": 2, "norm": "sch:inf"}'
        with open(cfg, "w") as fh:
            fh.write(text)
        rc = cli_main(["train", "--config", cfg])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: duplicate config key 'epochs'\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["train", "persample"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, command):
        # json.load raises RecursionError, not a ValueError, at this depth
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert cli_main([command, "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: maximum recursion depth exceeded") and err.count("\n") == 1

    @pytest.mark.parametrize("momentum", [False, True])
    def test_beta1_is_checked_and_used_only_with_momentum(self, tmp_path, momentum):
        with pytest.raises(ConfigError, match=r"beta1 must lie in \[0, 1\)"):
            load_config(write_config(tmp_path, momentum=momentum, beta1=1.5))
        assert load_config(write_config(tmp_path, momentum=momentum, beta1=0.9)).opt.beta1 == (0.9 if momentum else 0.0)

    # case -> (config overrides, what the message must name)
    _BEFORE_SOLVE_CASES = {
        "batch_size": ({"batch_size": 3}, "batch_size 3 must divide n = 4"),
        "w0_shape": ({"w0": "MATRIX"}, "w0 'MATRIX' has shape (2, 3)"),
        "out_csv_dir": ({"out_csv": "TMP"}, "out_csv 'TMP' names a directory"),
        "out_csv_under_file": ({"out_csv": "MATRIX/x.csv"}, "out_csv 'MATRIX/x.csv': directory 'MATRIX' does not exist"),
        "out_csv_deep_under_file": ({"out_csv": "MATRIX/new/x.csv"},
                                    "out_csv 'MATRIX/new/x.csv': directory 'MATRIX/new' does not exist"),
        "wstar_shape": ({"wstar_path": "MATRIX"}, "wstar_path 'MATRIX' has shape (2, 3)"),
        "wstar_zero": ({"wstar_path": "ZERO"}, "wstar_path 'ZERO' is the zero matrix"),
        "wstar_without_gamma": ({"wstar_path": "WSTAR"}, "wstar_path needs gamma"),
        "margin_tol_zero": ({"margin_tol": 0}, "margin_tol must be positive"),
        "margin_tol_negative": ({"margin_tol": -1e-3}, "margin_tol must be positive"),
        "seed_negative": ({"seed": -1}, "seed must be non-negative"),
        "margin_iters_zero": ({"margin_iters": 0}, "margin_iters must be >= 1"),
        "log_every_no_row": ({"log_every": 31}, "log_every 31 exceeds the run's 30 steps"),
        "gamma_zero": ({"gamma": 0, "batch_size": 2}, "gamma must be positive, got 0.0"),
        "gamma_negative": ({"gamma": -0.5}, "gamma must be positive, got -0.5"),
        # each norm and loss has one spelling, and a norm error names its key
        "loss_short": ({"loss": "ce"}, "loss must be one of ['cross_entropy', 'exponential'], got 'ce'"),
        "loss_upper": ({"loss": "CROSS_ENTROPY"},
                       "loss must be one of ['cross_entropy', 'exponential'], got 'CROSS_ENTROPY'"),
        "wbar_kind_key": ({"wbar_kind": "sign"}, "unknown config keys ['wbar_kind']"),
        "wbar_norm_word": ({"wbar_norm": "sign"}, "wbar_norm: bad norm spec 'sign'; expected 'ew:p' or 'sch:p'"),
        "norm_long_family": ({"norm": "entrywise:2"},
                             "norm: bad norm spec 'entrywise:2'; expected 'ew:p' or 'sch:p'"),
    }

    @pytest.mark.parametrize("case", list(_BEFORE_SOLVE_CASES))
    def test_config_error_before_reference_solve(self, tmp_path, capsys, monkeypatch, case):
        matrix = tmp_path / "w.txt"
        matrix.write_text("2 3\n0 0 0\n0 0 0\n")  # (k, d) = (2, 2)
        zero = tmp_path / "zero.txt"
        zero.write_text("2 2\n0 -0\n0 0\n")
        wstar = tmp_path / "wstar.txt"
        wstar.write_text("2 2\n0.6 0\n-0.6 0\n")
        overrides, named = self._BEFORE_SOLVE_CASES[case]

        def fill(text):
            for word, path in (("MATRIX", matrix), ("ZERO", zero), ("WSTAR", wstar), ("TMP", tmp_path)):
                text = text.replace(word, str(path))
            return text

        overrides = {key: fill(v) if isinstance(v, str) else v for key, v in overrides.items()}
        named = fill(named)
        cfg = write_config(tmp_path, **overrides)
        (tmp_path / "out.csv").write_text("previous run\n")
        solves = []

        def max_margin(*args, **kwargs):
            # records the call and never solves: with tol <= 0 the solver
            # of an unchecked config would not stop
            solves.append(args)
            raise AssertionError("the reference solve ran")

        monkeypatch.setattr(harness, "max_margin", max_margin)
        rc = cli_main(["train", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG and err.startswith(f"error: {cfg}: ")
        assert named in err
        assert solves == []
        assert (tmp_path / "out.csv").read_text() == "previous run\n"
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_failed_rerun_keeps_rows_logged_before_the_failure(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)  # log_every 5, 30 full-batch steps
        full = open(train_cmd(cfg), "rb").read()
        fail_step_at(monkeypatch, 17)
        rc = cli_main(["train", "--config", cfg])
        capsys.readouterr()
        assert rc == EXIT_NUMERIC
        partial = (tmp_path / "out.csv").read_bytes()
        assert [line.split(b",")[0] for line in partial.splitlines()[1:]] == [b"5", b"10", b"15"]
        assert partial.splitlines()[0] == CSV_HEADER.encode()
        assert full.startswith(partial) and len(partial) < len(full)

    def test_rerun_failing_before_training_removes_the_old_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli_main(["train", "--config", cfg]) == EXIT_OK
        assert (tmp_path / "out.csv").exists()
        # the same run, but the reference solve now cannot converge
        cfg = write_config(tmp_path, margin_tol=1e-7, margin_iters=50)
        assert cli_main(["train", "--config", cfg]) == EXIT_NONCONVERGENCE
        capsys.readouterr()
        assert not (tmp_path / "out.csv").exists()

    def test_zero_w_row_leaves_the_cosine_cells_empty(self, tmp_path):
        # eta0 = 0: the first step leaves W at zero, so row t = 1 has no
        # direction to compare with W* or W-bar; later rows do
        cfg = write_config(tmp_path, eta0=0.0, epochs=10, log_every=1, wbar_norm="ew:inf")
        out = train_cmd(cfg)
        rows = [line.split(",") for line in open(out).read().splitlines()[1:]]
        assert [row[0] for row in rows] == [str(t) for t in range(1, 11)]
        assert rows[0][7:11] == ["-inf", "inf", "", ""]
        assert all(cell != "" for row in rows[1:] for cell in row[9:11])
        # the reader takes the row back: the only infinite cells and the only empty ones a run writes
        cols = read_csv(out)
        assert (cols["norm_margin"][0], cols["gap_to_gamma"][0]) == (-np.inf, np.inf)
        assert np.isnan([cols["cos_wstar"][0], cols["cos_wbar"][0]]).all()
        # the zero-W row's infinite gap is not a fit point
        with pytest.raises(ValueError, match="only 9 positive-gap rows"):
            fit_rate(out, 1, 10)

    def test_zero_bias_matrix_exits_2_before_any_output_is_deleted(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, dataset_path=cancel_dataset_file(tmp_path), batch_size=1, wbar_norm="ew:2")
        (tmp_path / "out.csv").write_text("previous run\n")
        work = []
        for name in ("max_margin", "run"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name,
                                lambda *a, name=name, real=real, **kw: work.append(name) or real(*a, **kw))
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: wbar_norm ew:2 gives the zero bias matrix\n"
        assert (tmp_path / "out.csv").read_text() == "previous run\n"
        assert work == []

    @pytest.mark.parametrize("norm", ["ew:2", "sch:inf"])
    def test_solve_that_finds_no_margin_exits_2(self, tmp_path, capsys, norm):
        data = cancel_dataset_file(tmp_path)
        assert cli_main(["margin", "--dataset", data, "--norm", norm, "--out", str(tmp_path / "w.txt")]) == EXIT_OK
        assert '"gamma": -1.0' in capsys.readouterr().out  # the solver's no-margin sentinel
        cfg = write_config(tmp_path, norm=norm, dataset_path=data, batch_size=1)
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"error: {cfg}: no margin at norm {norm}: max_margin gives gamma "
                                           "-1.0, not above margin_tol 0.02\n")
        assert not (tmp_path / "out.csv").exists()  # no row is measured against the sentinel

    def test_wbar_norm_need_not_be_the_runs_norm(self, tmp_path):
        cols = read_csv(train_cmd(write_config(tmp_path, norm="ew:2", wbar_norm="sch:inf", gamma=0.5)))
        assert cols["t"].size == 6 and np.isfinite(cols["cos_wbar"]).all()

    def test_gap_column_consistent_with_target(self, tmp_path):
        # full-batch run: the stored target is gamma itself
        out = train_cmd(write_config(tmp_path))
        cols = read_csv(out)
        recon = cols["gap_to_gamma"] + cols["norm_margin"]
        assert np.abs(recon - recon[0]).max() <= 1e-10


class TestFitRate:
    def _write_csv(self, tmp_path, ts, gaps):
        path = tmp_path / "rate.csv"
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for t, g in zip(ts, gaps):
                fh.write(f"{t},0,0.1,0.1,0.1,0.0,1.0,0.0,{float(g)!r},,,0.0\n")
        return str(path)

    def test_planted_half_power(self, tmp_path):
        ts = np.arange(10, 5000, 10)
        path = self._write_csv(tmp_path, ts, ts ** -0.5)
        fit = fit_rate(path, 10, 5000)
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)
        assert fit.r2 >= 1 - 1e-9

    def test_planted_inverse_with_scale(self, tmp_path):
        ts = np.arange(10, 5000, 10)
        path = self._write_csv(tmp_path, ts, 3.0 * ts ** -1.0)
        fit = fit_rate(path, 10, 5000)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)

    def test_window_needs_twenty_positive_rows(self, tmp_path):
        ts = np.arange(10, 200, 10)
        path = self._write_csv(tmp_path, ts, np.full(ts.size, -1.0))
        with pytest.raises(ValueError):
            fit_rate(path, 10, 200)


class TestSweep:
    def test_two_configs_two_csvs_and_summary(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        for i in range(2):
            write_config(
                tmp_path,
                name=f"cfgs/run{i}.json",
                out_csv=str(tmp_path / f"run{i}.csv"),
                seed=i,
            )
        summary = sweep_cmd(str(cfg_dir), summary_path=str(tmp_path / "summary.json"))
        assert set(summary) == {"run0.json", "run1.json"}
        for i in range(2):
            assert os.path.exists(tmp_path / f"run{i}.csv")
            assert "final_gap" in summary[f"run{i}.json"]
        assert os.path.exists(tmp_path / "summary.json")

    def test_failure_isolation(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        write_config(tmp_path, name="cfgs/good.json", out_csv=str(tmp_path / "good.csv"))
        (cfg_dir / "bad.json").write_text("{not valid json")
        summary = sweep_cmd(str(cfg_dir))
        assert "error" in summary["bad.json"]
        assert "final_gap" in summary["good.json"]
        good_bytes = open(tmp_path / "good.csv", "rb").read()
        # rerunning the healthy config alone produces the same bytes
        train_cmd(write_config(tmp_path, name="solo.json", out_csv=str(tmp_path / "solo.csv")))
        assert open(tmp_path / "solo.csv", "rb").read() == good_bytes

    def test_data_with_no_margin_is_an_error_entry(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        write_config(tmp_path, name="cfgs/cancel.json", dataset_path=cancel_dataset_file(tmp_path),
                     batch_size=1, out_csv=str(tmp_path / "cancel.csv"))
        write_config(tmp_path, name="cfgs/good.json", out_csv=str(tmp_path / "good.csv"))
        summary = sweep_cmd(str(cfg_dir))
        error = summary["cancel.json"]["error"]
        assert error.startswith(f"ConfigError: {cfg_dir / 'cancel.json'}: no margin at norm ew:2")
        assert not (tmp_path / "cancel.csv").exists()
        assert "final_gap" in summary["good.json"] and (tmp_path / "good.csv").exists()

    def test_run_that_would_log_no_row_is_a_config_error(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        # 4 samples, full batch, 3 epochs: 3 steps, fewer than log_every
        write_config(tmp_path, name="cfgs/short.json", epochs=3, log_every=10)
        error = sweep_cmd(str(cfg_dir))["short.json"]["error"]
        assert error.startswith("ConfigError: ")
        assert "log_every 10 exceeds the run's 3 steps" in error

    def test_zero_final_w_writes_strict_json(self, tmp_path, capsys):
        # eta0 = 0 and one full-batch step leave W = 0, whose gap_to_gamma is inf
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        write_config(tmp_path, name="cfgs/zero.json", eta0=0.0, epochs=1, log_every=1)
        summary = tmp_path / "summary.json"
        assert cli_main(["sweep", "--config-dir", str(cfg_dir), "--out-summary", str(summary)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == summary.read_text()

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert json.loads(printed, parse_constant=reject) == {
            "zero.json": {"final_gap": None, "final_cos_wstar": None, "slope": None}
        }

    def test_reference_grid_accounting(self, tmp_path):
        # the reference experiment sweeps 2 batch sizes x 3 momentum values
        # x vr on/off x 3 norms = 36 configs; tiny epochs keep this a pure
        # accounting check
        cfg_dir = tmp_path / "grid"
        cfg_dir.mkdir()
        data = toy_dataset_file(tmp_path, "grid_data.txt")
        i = 0
        for b in (2, 4):
            for beta1 in (0.0, 0.5, 0.99):
                for vr in (False, True):
                    for norm in ("ew:2", "ew:inf", "sch:inf"):
                        write_config(
                            tmp_path,
                            name=f"grid/cfg{i:02d}.json",
                            dataset_path=data,
                            norm=norm,
                            batch_size=b,
                            momentum=beta1 > 0,
                            beta1=beta1,
                            vr=vr,
                            epochs=2,
                            out_csv=str(tmp_path / f"grid_out{i:02d}.csv"),
                            log_every=1,
                            margin_tol=0.05,
                            margin_iters=3000,
                        )
                        i += 1
        summary = sweep_cmd(str(cfg_dir))
        assert len(summary) == 36
        assert all("error" not in v for v in summary.values())


class TestRunInvariants:
    def _fb_csv(self, tmp_path, epochs=8000):
        # separable 3-class toy trained full batch with a = 0.5; the run is
        # long enough for eta_t to enter the guaranteed-descent regime
        rng = np.random.default_rng(8)
        means = np.eye(3)
        y = np.repeat(np.arange(3), 8)
        x = means[y].T + 0.1 * rng.standard_normal((3, 24))
        ds = Dataset(x, y, 3)
        dpath = tmp_path / "fbtoy.txt"
        save_dataset(ds, dpath)
        cfg = write_config(
            tmp_path,
            name="fbtoy.json",
            dataset_path=str(dpath),
            batch_size=24,
            epochs=epochs,
            c=0.25,
            eta0=0.25,
            out_csv=str(tmp_path / "fbtoy.csv"),
            log_every=10,
            margin_tol=0.02,
            margin_iters=30000,
        )
        return train_cmd(cfg), ds

    def test_monotone_late_phase_loss(self, tmp_path):
        # past the step where eta_t * 2 R^2 e^(2 R eta0) <= gamma/2, logged
        # losses must be nonincreasing (full-batch descent regime)
        csv_path, ds = self._fb_csv(tmp_path)
        cols = read_csv(csv_path)
        gamma = float(cols["gap_to_gamma"][0] + cols["norm_margin"][0])
        alpha1 = 2 * ds.r_bound ** 2 * math.exp(2 * ds.r_bound * 0.25)
        sel = cols["eta"] * alpha1 <= gamma / 2
        late = cols["loss"][sel]
        assert late.size > 50
        assert np.all(np.diff(late) <= 1e-12)

    def test_gap_eventually_decreasing(self, tmp_path):
        csv_path, _ = self._fb_csv(tmp_path)
        gaps = read_csv(csv_path)["gap_to_gamma"]
        q = gaps.size // 4
        assert gaps[-q:].mean() < gaps[:q].mean()


class TestPersample:
    def _cfg(self, tmp_path, **over):
        base = dict(
            name="ps.json",
            dataset_path=skewed_dataset_file(tmp_path),
            batch_size=1,
            epochs=300,
            out_csv=str(tmp_path / "ps.csv"),
            margin_tol=0.05,
            margin_iters=8000,
        )
        base.update(over)
        return write_config(tmp_path, **base)

    def test_smoke_and_verdict(self, tmp_path):
        csv_path, verdict = persample_cmd(self._cfg(tmp_path))
        assert os.path.exists(csv_path)
        assert os.path.exists(csv_path + ".verdict.json")
        assert verdict["invariant_gradient_ok"]
        assert verdict["final_loss"] < math.log(3)
        assert -1.0 <= verdict["final_cos_wbar"] <= 1.0

    def test_failed_rerun_keeps_rows_and_drops_the_old_verdict(self, tmp_path, capsys, monkeypatch):
        cfg = self._cfg(tmp_path, epochs=6, gamma=0.3, log_every=2)  # n = 5: 30 steps
        csv_path, _ = persample_cmd(cfg)
        full = open(csv_path, "rb").read()
        fail_step_at(monkeypatch, 9)
        assert cli_main(["persample", "--config", cfg]) == EXIT_NUMERIC
        capsys.readouterr()
        partial = open(csv_path, "rb").read()
        assert full.startswith(partial) and partial.count(b"\n") == 5  # header, t = 2, 4, 6, 8
        assert not os.path.exists(csv_path + ".verdict.json")

    @pytest.mark.parametrize("norm", ["ew:inf", "ew:2", "sch:inf"])
    def test_wrong_direction_fails_the_invariant_check(self, tmp_path, monkeypatch, norm):
        real = optimizer.steepest_map
        calls = []

        def steepest_map(h, spec):
            # step 3 moves along the negated steepest direction
            calls.append(1)
            return -real(h, spec) if len(calls) == 3 else real(h, spec)

        monkeypatch.setattr(optimizer, "steepest_map", steepest_map)
        csv_path, verdict = persample_cmd(self._cfg(tmp_path, norm=norm, epochs=3, gamma=0.3))
        assert len(calls) == 15
        assert verdict["invariant_gradient_ok"] is False
        with open(csv_path + ".verdict.json") as fh:
            assert json.load(fh)["invariant_gradient_ok"] is False

    @pytest.mark.parametrize("norm", ["ew:inf", "ew:2", "sch:inf"])
    def test_batched_check_sees_every_step(self, tmp_path, monkeypatch, norm):
        # n = 5: 110 epochs are two full chunks and a partial one
        chunk, steps = harness._CHECK_CHUNK, 5 * 110
        assert steps > 2 * chunk and steps % chunk
        real = optimizer.steepest_map
        for off in (None, 0, chunk - 1, chunk, steps - 1):
            calls = []

            def steepest_map(h, spec):
                delta = real(h, spec)
                if len(calls) == off:
                    delta = delta.copy()
                    delta[0, 0] += 1e-6
                calls.append(1)
                return delta

            monkeypatch.setattr(optimizer, "steepest_map", steepest_map)
            _, verdict = persample_cmd(self._cfg(tmp_path, norm=norm, epochs=110, gamma=0.3))
            assert len(calls) == steps
            assert verdict["invariant_gradient_ok"] is (off is None), off

    def test_rejects_batch_size_above_one(self, tmp_path):
        with pytest.raises(ConfigError):
            persample_cmd(self._cfg(tmp_path, batch_size=5, name="b5.json"))

    def test_rejects_momentum_and_vr(self, tmp_path):
        with pytest.raises(ConfigError):
            persample_cmd(self._cfg(tmp_path, momentum=True, beta1=0.5, name="m.json"))
        with pytest.raises(ConfigError):
            persample_cmd(self._cfg(tmp_path, vr=True, name="v.json"))

    def test_norms_with_no_closed_form_converge_to_their_bias(self, tmp_path):
        # criterion 9's skewed instance; at 1000 epochs every norm measured
        # cos 0.9999976 to its own bias matrix
        spec = SkewedSpec(
            counts=(6, 3, 3, 2, 1),
            alpha_ranges=((0.8, 1.2), (0.5, 1.5), (1.0, 2.0), (0.6, 0.9), (1.5, 2.5)),
            seed=42,
        )
        save_dataset(gen_skewed(spec), tmp_path / "c9.txt")
        for norm in ("ew:1.5", "ew:3", "sch:1", "sch:3"):
            cfg = self._cfg(tmp_path, norm=norm, dataset_path=str(tmp_path / "c9.txt"), epochs=1000,
                            log_every=100, seed=3, gamma=1.0)
            _, verdict = persample_cmd(cfg)
            assert verdict["invariant_gradient_ok"] is True, norm
            assert verdict["final_cos_wbar"] >= 0.99999, norm
            assert verdict["wbar_norm"] == norm

    @pytest.mark.parametrize(
        "norm,wbar_norm",
        [("ew:2", "ew:inf"), ("ew:inf", "ew:2"), ("sch:inf", "ew:inf"), ("sch:inf", "ew:2"), ("ew:3", "ew:inf")],
    )
    def test_rejects_a_wbar_norm_other_than_its_norm(self, tmp_path, capsys, norm, wbar_norm):
        cfg = self._cfg(tmp_path, norm=norm, wbar_norm=wbar_norm, epochs=3, gamma=0.3, name="k.json")
        with pytest.raises(ConfigError, match="wbar_norm"):
            persample_cmd(cfg)
        assert cli_main(["persample", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(tmp_path / "ps.csv")

    @pytest.mark.parametrize("norm", ["ew:2", "ew:inf", "sch:inf", "sch:1.5"])
    def test_the_verdicts_wbar_norm_as_config_runs_unchanged(self, tmp_path, norm):
        base = self._cfg(tmp_path, norm=norm, epochs=3, gamma=0.3, name="base.json")
        _, expect = persample_cmd(base)
        expect_csv = open(tmp_path / "ps.csv", "rb").read()
        cfg = self._cfg(tmp_path, norm=norm, wbar_norm=expect["wbar_norm"], epochs=3, gamma=0.3, name="k.json")
        _, verdict = persample_cmd(cfg)
        assert verdict == expect
        assert verdict["wbar_norm"] == norm
        assert open(tmp_path / "ps.csv", "rb").read() == expect_csv

    @pytest.mark.parametrize(
        "over,reason",
        [
            (dict(batch_size=5), "persample protocol requires batch_size = 1"),
            (dict(vr=True), "persample protocol requires momentum and vr off"),
            (dict(norm="ew:3", wbar_norm="ew:2"), "persample takes the bias matrix at its norm ew:3, not wbar_norm ew:2"),
            (dict(w0="ones"), "persample protocol requires w0 = zeros"),
            (dict(wbar_norm="ew:inf"), "persample takes the bias matrix at its norm ew:2, not wbar_norm ew:inf"),
            (dict(dataset_path="toy"), "persample protocol needs orthogonal scale-skewed data; sample 0 is not"),
        ],
        ids=["batch_size", "vr", "norm", "w0", "wbar_norm", "dataset"],
    )
    def test_precondition_errors_name_the_config(self, tmp_path, capsys, over, reason):
        if over.get("w0") == "ones":
            save_matrix(np.ones((3, 3)), tmp_path / "w0.txt")
            over = dict(w0=str(tmp_path / "w0.txt"))
        if over.get("dataset_path") == "toy":
            over = dict(dataset_path=toy_dataset_file(tmp_path))
        cfg = self._cfg(tmp_path, epochs=1, log_every=1, gamma=0.3, **over)
        assert cli_main(["persample", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {reason}")

    def test_rejects_non_skewed_dataset(self, tmp_path):
        cfg = self._cfg(tmp_path, dataset_path=toy_dataset_file(tmp_path), batch_size=1, name="g.json")
        with pytest.raises(ConfigError):
            persample_cmd(cfg)

    @pytest.mark.parametrize(
        "x,y,first_bad",
        [
            ([[1.0, 0.0, 1.0], [0.0, -0.5, 0.0]], [0, 1, 0], 1),  # a negative scale
            ([[1.0, 0.3, 1.0], [0.0, 0.5, 0.0]], [0, 1, 0], 1),  # an off-label entry
            ([[1.0, 0.5, 1.0], [0.0, 0.0, 0.0]], [0, 1, 0], 1),  # on the wrong axis
            ([[1.0, 0.0, 1.0], [0.0, 0.5, 0.0]], [1, 1, 0], 0),  # e_0 labelled 1
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0, 1, 2], 2),  # k = 3 > d = 2: no axis e_2
        ],
    )
    def test_non_skewed_sample_is_named(self, tmp_path, x, y, first_bad):
        path = tmp_path / "bad.txt"
        save_dataset(Dataset(np.array(x), np.array(y), max(y) + 1), path)
        cfg = self._cfg(tmp_path, dataset_path=str(path), epochs=1, log_every=1, gamma=0.3, name="bad.json")
        with pytest.raises(ConfigError, match=f"sample {first_bad} is not alpha"):
            persample_cmd(cfg)


class TestOutputRule:
    """One rule for every output, ``harness._check_out``: each is checked
    before any file is deleted and before any solve, generation or run."""

    # case -> (output path in the work directory, the message after "<flag or key> <path!r>")
    _CASES = {
        "missing_directory": ("nodir/out.txt", ": directory 'nodir' does not exist"),
        "existing_directory": ("sub", " names a directory"),
        "under_a_regular_file": ("prev.txt/out.txt", ": directory 'prev.txt' does not exist"),
        "empty_basename": ("", " does not name a file"),
        "name_too_long": ("n" * 300, ": file name longer than {limit} bytes"),
    }

    @staticmethod
    def _tree(root):
        """Every file under ``root`` with its bytes, and every directory."""
        return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

    @pytest.mark.parametrize("case", list(_CASES))
    @pytest.mark.parametrize("command", ["gen-data", "margin", "sweep", "train", "persample"])
    def test_bad_output_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command, case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "prev.txt").write_text("previous output\n")
        work = []
        for module, name in [(cli, "gen_gaussian"), (cli, "gen_skewed"), (cli, "max_margin"),
                             (harness, "max_margin"), (harness, "run")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: work.append(name))
        out, tail = self._CASES[case]
        if command == "gen-data":
            argv, named = ["gen-data", "gaussian", "--out", out], f"--out {out!r}"
        elif command == "margin":
            argv = ["margin", "--dataset", toy_dataset_file(tmp_path), "--norm", "ew:2", "--out", out]
            named = f"--out {out!r}"
        elif command == "sweep":
            (tmp_path / "cfgs").mkdir()
            write_config(tmp_path, name="cfgs/good.json", out_csv="good.csv")
            argv, named = ["sweep", "--config-dir", "cfgs", "--out-summary", out], f"--out-summary {out!r}"
        else:
            cfg = write_config(tmp_path, dataset_path=skewed_dataset_file(tmp_path), batch_size=1, gamma=0.3,
                               out_csv=out)
            argv, named = [command, "--config", cfg], f"{cfg}: out_csv {out!r}"
        before = self._tree(tmp_path)
        assert cli_main(argv) == EXIT_CONFIG
        tail = tail.format(limit=os.pathconf(tmp_path, "PC_NAME_MAX"))
        assert capsys.readouterr().err == f"error: {named}{tail}\n"
        assert work == []
        assert self._tree(tmp_path) == before

    def test_persample_verdict_path_is_checked_before_the_csv_is_deleted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        work = []
        for name in ("max_margin", "run"):
            monkeypatch.setattr(harness, name, lambda *a, name=name, **kw: work.append(name))
        (tmp_path / "ps.csv.verdict.json").mkdir()
        # the second CSV's name fits the limit; its verdict's, 13 bytes longer, does not
        limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        cases = {"ps.csv": " names a directory", "p" * (limit - 4) + ".csv": f": file name longer than {limit} bytes"}
        for out, tail in cases.items():
            cfg = write_config(tmp_path, dataset_path=skewed_dataset_file(tmp_path), batch_size=1, gamma=0.3,
                               out_csv=out)
            (tmp_path / out).write_text("previous run\n")
            assert cli_main(["persample", "--config", cfg]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"error: {cfg}: verdict {out + '.verdict.json'!r}{tail}\n"
            assert (tmp_path / out).read_text() == "previous run\n"
        assert work == []

    @staticmethod
    def _record_work(monkeypatch) -> list:
        """Replace every solve, bias matrix, run and sweep entry with a stub that records its name."""
        work = []
        for module, name in [(cli, "max_margin"), (harness, "max_margin"), (harness, "bias_matrix"),
                             (harness, "run"), (harness, "train_cmd")]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **kw: work.append(name))
        return work

    @pytest.mark.parametrize("key", ["the config", "dataset_path", "w0", "wstar_path"])
    @pytest.mark.parametrize("command,output", [("train", "out_csv"), ("persample", "out_csv"),
                                                ("persample", "verdict")])
    def test_run_output_that_is_one_of_its_inputs_exits_2(self, tmp_path, capsys, monkeypatch, command, output, key):
        work = self._record_work(monkeypatch)
        inputs = {"the config": str(tmp_path / "cfg.json"), "dataset_path": skewed_dataset_file(tmp_path),
                  "w0": str(tmp_path / "w0.txt"), "wstar_path": str(tmp_path / "wstar.txt")}
        save_matrix(np.zeros((3, 3)), inputs["w0"])
        save_matrix(np.eye(3), inputs["wstar_path"])
        if output == "out_csv":  # the same path
            out_csv = out = inputs[key]
        else:  # another path to the same file
            out_csv, out = str(tmp_path / "ps.csv"), str(tmp_path / "ps.csv.verdict.json")
            os.symlink(inputs[key], out)
        cfg = write_config(tmp_path, dataset_path=inputs["dataset_path"], w0=inputs["w0"],
                           wstar_path=inputs["wstar_path"], batch_size=1, gamma=0.3, out_csv=out_csv)
        before = self._tree(tmp_path)
        assert cli_main([command, "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {output} {out!r} is the same file as {key} {inputs[key]!r}\n"
        assert work == []
        assert self._tree(tmp_path) == before

    def test_margin_out_that_is_its_dataset_exits_2(self, tmp_path, capsys, monkeypatch):
        # a relative --out and an absolute --dataset naming one file
        monkeypatch.chdir(tmp_path)
        work = self._record_work(monkeypatch)
        data = toy_dataset_file(tmp_path)
        before = self._tree(tmp_path)
        assert cli_main(["margin", "--dataset", data, "--norm", "ew:2", "--out", "toy.txt"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --out 'toy.txt' is the same file as --dataset {data!r}\n"
        assert work == []
        assert self._tree(tmp_path) == before

    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_sweep_summary_in_its_config_dir_exits_2(self, tmp_path, capsys, monkeypatch, exists):
        # a second sweep would read the first one's summary as a config
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfgs").mkdir()
        write_config(tmp_path, name="cfgs/good.json", gamma=0.5, out_csv="good.csv")
        if exists:
            (tmp_path / "cfgs" / "summary.json").write_text("{}\n")
        work = self._record_work(monkeypatch)
        before = self._tree(tmp_path)
        config_dir = str(tmp_path / "cfgs")
        assert cli_main(["sweep", "--config-dir", config_dir, "--out-summary", "cfgs/summary.json"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --out-summary 'cfgs/summary.json' is a *.json file in --config-dir {config_dir!r}\n")
        assert work == []
        assert self._tree(tmp_path) == before
        # a summary that is not a *.json file, or not in the directory, is no config
        (tmp_path / "cfgs" / "summary.json").unlink(missing_ok=True)
        for out in ("cfgs/summary.txt", "summary.json"):
            assert cli_main(["sweep", "--config-dir", config_dir, "--out-summary", out]) == EXIT_OK
        capsys.readouterr()
        assert work == ["train_cmd", "train_cmd"]

    def test_library_sweep_checks_its_summary_before_any_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfgs").mkdir()
        write_config(tmp_path, name="cfgs/good.json", gamma=0.5, out_csv="good.csv")
        trained, real = [], harness.train_cmd
        monkeypatch.setattr(harness, "train_cmd", lambda path: trained.append(path) or real(path))
        message = "^--out-summary 'nodir/summary.json': directory 'nodir' does not exist$"
        with pytest.raises(ValueError, match=message):
            sweep_cmd("cfgs", "nodir/summary.json")
        assert trained == []
        assert not (tmp_path / "good.csv").exists()


class TestCli:
    def test_gen_data_and_margin_and_train(self, tmp_path, capsys):
        data_path = str(tmp_path / "cli_data.txt")
        rc = cli_main(
            ["gen-data", "skewed", "--out", data_path, "--seed", "3",
             "--counts", "2,1,1", "--alpha-ranges", "0.5:1.5,1.0:2.0,0.7:0.9"]
        )
        assert rc == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert info["n"] == 4

        wstar_path = str(tmp_path / "wstar.txt")
        rc = cli_main(
            ["margin", "--dataset", data_path, "--norm", "ew:2", "--out", wstar_path,
             "--tol", "0.05", "--max-iters", "6000"]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["gamma"] > 0
        assert os.path.exists(wstar_path)

    def test_parser_is_built_once_and_reused_cleanly(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "d.txt")
        good = ["gen-data", "skewed", "--out", out, "--seed", "3"]
        bad = ["gen-data", "skewed", "--out", out, "--bogus", "1"]

        def outcomes(*calls):
            res = []
            for argv in calls:
                rc = cli_main(argv)
                captured = capsys.readouterr()
                res.append((rc, captured.out, captured.err))
            return res

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        shared = outcomes(bad, good, good, bad)
        assert built == [1]
        monkeypatch.setattr(cli, "_parser", real)  # a fresh parser for every call
        fresh = outcomes(bad, good, good, bad)
        assert shared == fresh
        assert [rc for rc, _, _ in shared] == [EXIT_CONFIG, EXIT_OK, EXIT_OK, EXIT_CONFIG]
        assert "--bogus" in shared[0][2] and json.loads(shared[1][1])["n"] == 15

    def test_gen_data_gaussian(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = cli_main(["gen-data", "gaussian", "--out", str(out), "--k", "3", "--per-class", "4", "--d", "2",
                       "--sigma", "0.05", "--seed", "7"])
        assert rc == EXIT_OK
        info = json.loads(capsys.readouterr().out)
        assert (info["n"], info["d"], info["k"]) == (12, 2, 3)
        ds = load_dataset(str(out))
        assert (ds.n, ds.d, ds.k) == (12, 2, 3)

    @pytest.mark.parametrize(
        "family,flags,named",
        [
            ("gaussian", ["--seed", "-1"], "seed must be non-negative"),
            ("skewed", ["--seed", "-1"], "seed must be non-negative"),
            ("gaussian", ["--sigma", "nan"], "sigma must be finite"),
            ("skewed", ["--counts", "3,x"], "argument --counts: "),
            ("skewed", ["--counts", "2, 1", "--alpha-ranges", "1:2, 1:2"], "argument --counts: "),
            ("skewed", ["--alpha-ranges", "1:2:3"], "argument --alpha-ranges: "),
            ("skewed", ["--alpha-ranges", "0.8:1.2,0.5:1.5,1.0:inf,0.6:0.9,1.5:2.5"], "alpha ranges must satisfy"),
        ],
        ids=["gaussian-seed", "skewed-seed", "sigma-nan", "counts", "counts-spaced", "alpha-ranges-split",
             "alpha-ranges-inf"],
    )
    def test_gen_data_bad_flag_is_named(self, tmp_path, capsys, monkeypatch, family, flags, named):
        probes = []
        monkeypatch.setattr(data, "max_margin", lambda *a, **kw: probes.append(a))
        out = tmp_path / "d.txt"
        rc = cli_main(["gen-data", family, "--out", str(out), *flags])
        assert rc == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert probes == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "family,flags",
        [
            ("gaussian", ["--k", "1000000000000000"]),
            ("skewed", ["--counts", "1000000000000000,1", "--alpha-ranges", "1:2,1:2"]),
        ],
        ids=["gaussian-k", "skewed-counts"],
    )
    def test_gen_data_size_too_large_to_allocate(self, tmp_path, capsys, family, flags):
        out = tmp_path / "d.txt"
        rc = cli_main(["gen-data", family, "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("family", ["gaussian", "skewed"])
    @pytest.mark.parametrize(
        "out,named",
        [("nodir/x.txt", "--out 'nodir/x.txt': directory 'nodir' does not exist"), ("sub", "--out 'sub' names a directory")],
        ids=["no-parent", "directory"],
    )
    def test_gen_data_out_is_checked_before_generating(self, tmp_path, capsys, monkeypatch, family, out, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        generated = []
        monkeypatch.setattr(cli, "gen_gaussian", generated.append)
        monkeypatch.setattr(cli, "gen_skewed", generated.append)
        assert cli_main(["gen-data", family, "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {named}\n"
        assert generated == []

    @pytest.mark.parametrize("label", ["100000000000000000000000000000", "-1"], ids=["huge", "negative"])
    def test_label_outside_the_classes_names_file_and_line(self, tmp_path, capsys, label):
        path = tmp_path / "labels.txt"
        path.write_text(f"2 2 2\n0 1 0\n{label} 0 1\n")
        reason = f"{path}: sample line 1: label '{label}' does not lie in [0, k) = [0, 2)"
        rc = cli_main(["margin", "--dataset", str(path), "--norm", "ew:2", "--out", str(tmp_path / "w.txt")])
        assert (rc, capsys.readouterr().err) == (EXIT_CONFIG, f"error: {reason}\n")
        cfg = write_config(tmp_path, dataset_path=str(path))
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {reason}\n"

    @pytest.mark.parametrize(
        "family,flags,foreign",
        [
            ("skewed", ["--k", "3", "--sigma", "5", "--d", "9"], "--sigma"),
            ("gaussian", ["--counts", "1,2"], "--counts"),
        ],
    )
    def test_gen_data_rejects_the_other_familys_flags(self, tmp_path, capsys, family, flags, foreign):
        out = tmp_path / "d.txt"
        rc = cli_main(["gen-data", family, "--out", str(out), *flags])
        assert rc == EXIT_CONFIG
        assert foreign in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["gen-data", "gen-data-skewed", "margin", "train", "train-gamma", "persample-gamma"],
    )
    def test_one_class_data_is_rejected(self, tmp_path, capsys, command):
        # no pair (i, c != y_i) exists, so gamma, W* and every gap are undefined
        data = tmp_path / "one.txt"
        data.write_text("1 3 1\n0 1.0\n0 2.0\n0 3.0\n")
        out = tmp_path / "out.csv"
        out.write_text("previous run\n")
        reason = "a dataset needs at least two classes, got k = 1"
        if command.startswith("gen-data"):
            flags = (["gaussian", "--k", "1", "--per-class", "3", "--d", "2", "--sigma", "0", "--seed", "1"]
                     if command == "gen-data" else ["skewed", "--counts", "3", "--alpha-ranges", "1:2"])
            argv, expected = ["gen-data", *flags, "--out", str(out)], reason
        elif command == "margin":
            argv, expected = ["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(out)], f"{data}: {reason}"
        else:
            gamma = 0.5 if command.endswith("-gamma") else None
            cfg = write_config(tmp_path, batch_size=1, epochs=1, log_every=1, gamma=gamma, dataset_path=str(data))
            argv, expected = [command.removesuffix("-gamma"), "--config", cfg], f"{cfg}: {data}: {reason}"
        before = sorted(os.listdir(tmp_path))
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert out.read_text() == "previous run\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_margin_rejects_zero_feature_data(self, tmp_path, capsys):
        # the solver's fallback direction needs an entry W[0, 0]
        data = tmp_path / "nofeatures.txt"
        data.write_text("0 4 2\n0\n1\n0\n1\n")
        out = tmp_path / "w.txt"
        assert cli_main(["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {data}: a dataset needs at least one feature, got d = 0\n"
        assert not out.exists()

    def test_sweep_prints_the_summary_it_writes(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        write_config(tmp_path, name="cfgs/good.json")
        (cfg_dir / "bad.json").write_text("{not valid json")
        summary = tmp_path / "summary.json"
        rc = cli_main(["sweep", "--config-dir", str(cfg_dir), "--out-summary", str(summary)])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == summary.read_text()
        assert set(json.loads(summary.read_text())) == {"good.json", "bad.json"}

    def test_train_exit_codes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli_main(["train", "--config", cfg]) == EXIT_OK
        capsys.readouterr()
        assert cli_main(["train", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("case", ["missing_dataset", "unwritable_out"])
    def test_os_errors_exit_config(self, tmp_path, capsys, case):
        data = toy_dataset_file(tmp_path)
        out = str(tmp_path / "w.txt")
        if case == "missing_dataset":
            data = str(tmp_path / "absent.txt")
        else:
            out = str(tmp_path)  # a directory cannot be opened for writing
        rc = cli_main(["margin", "--dataset", data, "--norm", "ew:2", "--out", out, "--tol", "0.05"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text,ok",
        [
            ("2 2\n1.5\n1 2\n", False),  # short row
            ("2 2\n1 2 3\n1 2\n", False),  # long row
            ("2 2\n1 2\n", False),  # missing row
            ("2 2\nnan 1\n1 2\n", False),
            ("2 2\n1 inf\n1 2\n", False),
            ("2 2\n1 2\n3 4\n5 6\n", False),  # trailing row
            ("2\n1 2\n3 4\n", False),  # short header
            ("2 2\n1 2\n3 4\n\n  \n", True),  # trailing blank lines
        ],
    )
    def test_malformed_matrix_file(self, tmp_path, capsys, text, ok):
        w0 = tmp_path / "w0.txt"
        w0.write_text(text)
        cfg = write_config(tmp_path, epochs=2, log_every=1, gamma=0.5, w0=str(w0))
        rc = cli_main(["train", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == (EXIT_OK if ok else EXIT_CONFIG)
        assert ok or err.startswith("error: ")

    @pytest.mark.parametrize(
        "text,ok",
        [
            ("2 2 2\n0 1.0 0.2\n1 -1.0 0.1\n\n  \n", True),  # trailing blank lines
            ("2 2 2\n0 1.0 0.2\n1 -1.0 0.1\n0 1.0 0.5\n", False),  # trailing sample
            ("2 2 2\n0 1.0 0.2\n1 -1.0 0.1\njunk\n", False),
            ("2 2 2\n0 1.0 nan\n1 -1.0 0.1\n", False),
        ],
    )
    def test_malformed_dataset_file(self, tmp_path, capsys, text, ok):
        data = tmp_path / "data.txt"
        data.write_text(text)
        rc = cli_main(["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(tmp_path / "w.txt"),
                       "--tol", "0.05", "--max-iters", "6000"])
        err = capsys.readouterr().err
        assert rc == (EXIT_OK if ok else EXIT_CONFIG)
        assert ok or err.startswith("error: ")

    @pytest.mark.parametrize(
        "key,text,reason",
        [
            ("dataset_path", "2 2 3\n0 1.0 0.2\n1 -1.0 0.1\n", "{bad}: every class must appear at least once; missing [2]"),
            ("w0", "2 2\n1.5\n1 2\n", "{bad}: row 0 has 1 fields, expected 2"),
            # the header sizes no array: the short file fails on its lines
            ("w0", "1000000000000000 2\n1 2\n", "{bad}: row 1 has 0 fields, expected 2"),
            ("w0", "-2 2\n", "{bad}: header 'rows cols': negative size '-2'"),
            ("w0", "2 2\n1_5 2\n1 2\n", "{bad}: row 0: digit separator '_' in '1_5'"),
        ],
        ids=["dataset_path", "w0", "w0-oversized", "w0-negative", "w0-separator"],
    )
    def test_loader_errors_name_the_config(self, tmp_path, capsys, key, text, reason):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        cfg = write_config(tmp_path, epochs=2, log_every=1, gamma=0.5, **{key: str(bad)})
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {reason.format(bad=bad)}\n"

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("2 q 2\n0 1.0 0.2\n1 -1.0 0.1\n", "header 'd n k': invalid literal for int() with base 10: 'q'"),
            ("2 2 2\nq 1.0 0.2\n1 -1.0 0.1\n", "sample line 0: invalid literal for int() with base 10: 'q'"),
            ("2 2 2\n0 1.0 x\n1 -1.0 0.1\n", "sample line 0: could not convert string to float: 'x'"),
            ("2 2 2\n0 1.0 0.2\n1 nan 0.1\n", "sample line 1: non-finite value 'nan'"),
            ("2 2 2\n0 1.0 0.2\n1 -1.0 1e400\n", "sample line 1: non-finite value '1e400'"),
            ("2 2 3\n0 1.0 0.2\n1 -1.0 0.1\n", "every class must appear at least once; missing [2]"),
            # no header size allocates: each of these fails on the lines it has
            ("2 1000000000000000 2\n0 1.0 0.2\n", "sample line 1 has 0 fields, expected 3"),
            ("1000000000000000 2 2\n0 1.0\n", "sample line 0 has 2 fields, expected 1000000000000001"),
            ("2 2 1000000000000000\n0 1.0 0.2\n1 -1.0 0.1\n",
             "every class must appear at least once; missing 999999999999998 classes, the first ten "
             "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"),
            ("2 -1 2\n", "header 'd n k': negative size '-1'"),
            ("-2 2 2\n0 1.0 0.2\n1 -1.0 0.1\n", "header 'd n k': negative size '-2'"),
            # int() and float() read 0_2 as 2, 0_0 as 0 and 1_0 as 10; repr() never writes '_'
            ("2 2 0_2\n0 1.0 0.2\n1 -1.0 0.1\n", "header 'd n k': digit separator '_' in '0_2'"),
            ("2 2 2\n0_0 1.0 0.2\n1 -1.0 0.1\n", "sample line 0: digit separator '_' in '0_0'"),
            ("2 2 2\n0 1_0 0.2\n1 -1.0 0.1\n", "sample line 0: digit separator '_' in '1_0'"),
        ],
        ids=["header", "label", "value", "nan", "overflow", "missing-class", "oversized-n", "oversized-d",
             "oversized-k", "negative-n", "negative-d", "header-separator", "label-separator", "value-separator"],
    )
    def test_dataset_errors_name_the_file_and_line(self, tmp_path, capsys, text, reason):
        data = tmp_path / "data.txt"
        data.write_text(text)
        out = tmp_path / "w.txt"
        assert cli_main(["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {data}: {reason}\n"
        assert not out.exists()

    def test_margin_rejects_data_whose_softmin_argument_overflows(self, tmp_path, capsys):
        # 2 * r_bound / tau at the default ladder's last rung, 0.3**5, is past the float range
        data = tmp_path / "huge.txt"
        data.write_text("1 2 2\n0 1e306\n1 -1e306\n")
        out = tmp_path / "w.txt"
        assert cli_main(["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: softmin argument 2 * r_bound / tau overflows at r_bound = 1e+306, tau = 0.00243 (tol = 0.001); "
            "raise tol or rescale the data\n"
        )
        assert not out.exists()

    def test_softmin_overflow_from_a_tiny_tol_names_tol(self, tmp_path, capsys):
        # r_bound 1.95 is ordinary data; the ladder's last rung, near tol, is what overflows
        data = tmp_path / "small.txt"
        data.write_text("1 2 2\n0 1.95\n1 -1.0\n")
        out = tmp_path / "w.txt"
        argv = ["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(out), "--tol", "1e-320"]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: softmin argument 2 * r_bound / tau overflows at r_bound = 1.95, tau = ")
        assert err.endswith(" (tol = 1e-320); raise tol or rescale the data\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["margin", "sweep"])
    def test_unwritable_output_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        solves, runs = [], []
        monkeypatch.setattr(cli, "max_margin", lambda *a, **kw: solves.append(a))
        monkeypatch.setattr(harness, "train_cmd", lambda path: runs.append(path))
        missing = tmp_path / "nodir"
        if command == "margin":
            flag, out = "--out", str(missing / "w.txt")
            argv = ["margin", "--dataset", toy_dataset_file(tmp_path), "--norm", "ew:inf", flag, out]
        else:
            (tmp_path / "cfgs").mkdir()
            write_config(tmp_path, name="cfgs/good.json")
            flag, out = "--out-summary", str(missing / "s.json")
            argv = ["sweep", "--config-dir", str(tmp_path / "cfgs"), flag, out]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {flag} {out!r}: directory {str(missing)!r} does not exist\n"
        assert solves == [] and runs == []
        assert not missing.exists()

    @pytest.mark.parametrize("norm", ["ew:1e400", "sch:1e999", "ew:Infinity", "ew:nan"])
    def test_margin_rejects_a_non_finite_exponent_other_than_inf(self, tmp_path, capsys, norm):
        out = tmp_path / "w.txt"
        argv = ["margin", "--dataset", toy_dataset_file(tmp_path), "--norm", norm, "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: bad norm spec {norm!r}; expected 'ew:p' or 'sch:p'\n"
        assert not out.exists()

    @pytest.mark.parametrize("norm", [" ew: 2 ", "ew:+2", "ew:02", "ew:2e0", "ew:1_0", "ew:2.0"])
    def test_only_the_printed_spelling_of_a_norm_is_accepted(self, tmp_path, capsys, norm):
        # each of these once parsed to a norm that str prints otherwise; ew:1_0 ran at p = 10
        expected = f"bad norm spec {norm!r}; expected 'ew:p' or 'sch:p'\n"
        out = tmp_path / "w.txt"
        argv = ["margin", "--dataset", toy_dataset_file(tmp_path), "--norm", norm, "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {expected}"
        cfg = write_config(tmp_path, norm=norm)
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: norm: {expected}"
        assert not out.exists() and not (tmp_path / "out.csv").exists()

    def test_margin_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        argv = ["margin", "--dataset", toy_dataset_file(tmp_path), "--norm", "ew:2", "--out", str(tmp_path)]
        assert cli_main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --out {str(tmp_path)!r} names a directory\n"

    # the ew:2 norm's unscaled sum of squares overflows and takes the scaled path
    def test_margin_solves_data_inside_the_softmin_range(self, tmp_path, capsys):
        data = tmp_path / "big.txt"
        data.write_text("1 2 2\n0 1e300\n1 -1e300\n")
        out = tmp_path / "w.txt"
        assert cli_main(["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(out)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["separable"] is True

    def test_margin_on_huge_data_prints_no_warning(self, tmp_path):
        # a child process with Python's default warning filters, which print
        # every RuntimeWarning to stderr
        data = tmp_path / "big.txt"
        data.write_text("1 2 2\n0 1e300\n1 -1e300\n")
        proc = subprocess.run(
            [sys.executable, "-m", "normdescent.cli", "margin", "--dataset", str(data), "--norm", "ew:2",
             "--out", str(tmp_path / "w.txt")],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["separable"] is True

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("2 x\n1 2\n3 4\n", "header 'rows cols': invalid literal for int() with base 10: 'x'"),
            ("2 2\n1 x\n3 4\n", "row 0: could not convert string to float: 'x'"),
            ("2 2\n1 2\ninf 4\n", "row 1: non-finite value 'inf'"),
        ],
        ids=["header", "value", "inf"],
    )
    def test_w0_errors_name_the_file_and_row(self, tmp_path, capsys, text, reason):
        w0 = tmp_path / "w0.txt"
        w0.write_text(text)
        cfg = write_config(tmp_path, epochs=2, log_every=1, gamma=0.5, w0=str(w0))
        assert cli_main(["train", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {cfg}: {w0}: {reason}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_bad_flags_exit_config(self):
        assert cli_main(["train"]) == EXIT_CONFIG

    # command -> its argv with one flag abbreviated, and that flag's full name
    _ABBREVIATED = {
        "gen-data-gaussian": (["gen-data", "gaussian", "--per", "3", "--k", "2", "--out", "OUT"], "--per-class"),
        "gen-data-skewed": (["gen-data", "skewed", "--count", "3,2", "--alpha-ranges", "1:2,1:2", "--out", "OUT"],
                            "--counts"),
        "margin": (["margin", "--dataset", "DATA", "--norm", "ew:2", "--out", "OUT", "--tol", "0.02", "--max", "5000"],
                   "--max-iters"),
        "train": (["train", "--conf", "CFG"], "--config"),
        "persample": (["persample", "--conf", "PSCFG"], "--config"),
        "sweep": (["sweep", "--config-d", "CFGS"], "--config-dir"),
        "fit-rate": (["fit-rate", "--csv", "CSV", "--t-l", "1", "--t-hi", "30"], "--t-lo"),
    }

    @pytest.mark.parametrize("command", list(_ABBREVIATED))
    def test_a_flag_is_accepted_only_by_its_full_name(self, tmp_path, capsys, command):
        cfgs = tmp_path / "cfgs"
        cfgs.mkdir()
        words = {
            "OUT": str(tmp_path / "out.txt"),
            "DATA": toy_dataset_file(tmp_path),
            "CFG": write_config(tmp_path),
            "PSCFG": write_config(tmp_path, name="ps.json", dataset_path=skewed_dataset_file(tmp_path), batch_size=1,
                                  epochs=6, out_csv=str(tmp_path / "ps.csv"), margin_tol=0.05),
            "CFGS": os.path.dirname(write_config(tmp_path, name="cfgs/a.json", out_csv=str(tmp_path / "a.csv"))),
            "CSV": str(tmp_path / "rate.csv"),
        }
        rows = (f"{t},0,0.1,0.1,0.1,0.0,1.0,0.0,{1.0 / t!r},,,0.0\n" for t in range(1, 31))
        (tmp_path / "rate.csv").write_text(CSV_HEADER + "\n" + "".join(rows))
        argv, full = self._ABBREVIATED[command]
        argv = [words.get(arg, arg) for arg in argv]
        before = sorted(os.listdir(tmp_path))
        assert cli_main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: normdescent")
        assert sorted(os.listdir(tmp_path)) == before
        # the same argv with the flag's full name runs
        abbreviated = next(arg for arg in argv if arg.startswith("--") and full.startswith(arg))
        assert cli_main([full if arg == abbreviated else arg for arg in argv]) == EXIT_OK

    def test_every_parser_rejects_abbreviated_flags(self):
        parsers = all_parsers()
        # the top level, its six subcommands and gen-data's two families
        assert len(parsers) == 9
        assert [p.prog for p in parsers if p.allow_abbrev] == []

    def test_no_flag_is_read_by_a_bare_int_or_float(self):
        # a numeric flag reads its text through the data files' token rule
        bare = [(p.prog, a.dest) for p in all_parsers() for a in p._actions if a.type in (int, float)]
        assert bare == []

    # argv -> the numeric flag whose text the token is put in ({} marks it)
    _NUMERIC_FLAGS = {
        "gaussian-k": (["gen-data", "gaussian", "--out", "OUT", "--k", "{}"], "--k"),
        "gaussian-per-class": (["gen-data", "gaussian", "--out", "OUT", "--per-class", "{}"], "--per-class"),
        "gaussian-d": (["gen-data", "gaussian", "--out", "OUT", "--d", "{}"], "--d"),
        "gaussian-sigma": (["gen-data", "gaussian", "--out", "OUT", "--sigma", "0.{}"], "--sigma"),
        "gaussian-seed": (["gen-data", "gaussian", "--out", "OUT", "--seed", "{}"], "--seed"),
        "skewed-seed": (["gen-data", "skewed", "--out", "OUT", "--seed", "{}"], "--seed"),
        "skewed-counts": (["gen-data", "skewed", "--out", "OUT", "--counts", "{},1", "--alpha-ranges", "1:2,1:2"],
                          "--counts"),
        "skewed-alpha-ranges": (["gen-data", "skewed", "--out", "OUT", "--counts", "3,2", "--alpha-ranges",
                                 "1:{},1:2"], "--alpha-ranges"),
        "margin-tol": (["margin", "--dataset", "DATA", "--norm", "ew:2", "--out", "OUT", "--tol", "{}e-3"], "--tol"),
        "margin-max-iters": (["margin", "--dataset", "DATA", "--norm", "ew:2", "--out", "OUT", "--max-iters", "{}"],
                             "--max-iters"),
        "fit-rate-t-lo": (["fit-rate", "--csv", "CSV", "--t-lo", "{}", "--t-hi", "300"], "--t-lo"),
        "fit-rate-t-hi": (["fit-rate", "--csv", "CSV", "--t-lo", "1", "--t-hi", "{}"], "--t-hi"),
    }

    @pytest.mark.parametrize("token", ["1_0", "\uff14", " 3 "], ids=["separator", "full-width", "whitespace"])
    @pytest.mark.parametrize("case", list(_NUMERIC_FLAGS))
    def test_numeric_flag_follows_the_data_files_token_rule(self, tmp_path, capsys, case, token):
        # int() and float() read '1_0' as 10, the full-width '4' as 4 and ' 3 '
        # as 3; the data loaders reject all three, and so does every numeric flag
        argv, flag = self._NUMERIC_FLAGS[case]
        rows = (f"{t},0,0.1,0.1,0.1,0.0,1.0,0.0,{1.0 / t!r},,,0.0\n" for t in range(1, 31))
        (tmp_path / "rate.csv").write_text(CSV_HEADER + "\n" + "".join(rows))
        words = {"OUT": str(tmp_path / "out.txt"), "DATA": toy_dataset_file(tmp_path), "CSV": str(tmp_path / "rate.csv")}
        before = sorted(os.listdir(tmp_path))
        rc = cli_main([words.get(arg, arg.replace("{}", token)) for arg in argv])
        out, err = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert out == "" and f"error: argument {flag}: " in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_numeric_failure_exits_3(self, tmp_path, capsys):
        # a far-off init overflows the exponential loss on the first
        # gradient evaluation and must exit 3
        w0_path = tmp_path / "w0.txt"
        save_matrix(np.array([[-800.0, 0.0], [800.0, 0.0]]), w0_path)
        cfg = write_config(
            tmp_path,
            name="boom.json",
            loss="exponential",
            epochs=5,
            norm="ew:inf",
            gamma=1.0,
            w0=str(w0_path),
            out_csv=str(tmp_path / "boom.csv"),
        )
        rc = cli_main(["train", "--config", cfg])
        capsys.readouterr()
        assert rc == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("norm", ["ew:2", "ew:inf"])
    def test_overflowing_training_exits_3(self, tmp_path, capsys, norm):
        # the first step moves W to +-1e10 along +-1e300 features, so the
        # next gradient is not finite
        data = tmp_path / "huge.txt"
        save_dataset(Dataset(np.array([[1e300, -1e300]]), np.array([0, 1]), 2), data)
        cfg = write_config(tmp_path, norm=norm, batch_size=1, c=1e10, eta0=1e10, epochs=3, gamma=1.0,
                           dataset_path=str(data), log_every=1)
        rc = cli_main(["train", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: training aborted at step 1: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("norm", ["ew:2", "ew:inf", "sch:inf"])
    def test_non_finite_metric_row_is_not_written(self, tmp_path, capsys, norm):
        # eta0 = 1e-300 keeps step 1 finite; step 2 moves W to +-1e10 along
        # +-1e300 features, so the logits of its metric row overflow
        data = tmp_path / "huge.txt"
        save_dataset(Dataset(np.array([[1e300, -1e300]]), np.array([0, 1]), 2), data)
        cfg = write_config(tmp_path, norm=norm, batch_size=1, c=1e10, eta0=1e-300, epochs=1, gamma=1.0,
                           dataset_path=str(data), log_every=1)
        rc = cli_main(["train", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: training aborted at step 2: non-finite metric row: ")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]
        assert all(math.isfinite(float(v)) for v in lines[1].split(",") if v)

    def _exponential_overflow_run(self, tmp_path, capsys, **overrides):
        """exit code, stderr and CSV lines of an exponential-loss run with
        gamma 0.1 on k = 3, d = 2, n = 12 standard-normal data."""
        data = tmp_path / "normal.txt"
        x = np.random.default_rng(0).standard_normal((2, 12))
        save_dataset(Dataset(x, np.arange(12) % 3, 3), data)
        cfg = write_config(tmp_path, loss="exponential", gamma=0.1, dataset_path=str(data), **overrides)
        rc = cli_main(["train", "--config", cfg])
        return rc, capsys.readouterr().err, (tmp_path / "out.csv").read_text().splitlines()

    def test_overflow_in_the_vr_snapshot_names_the_step(self, tmp_path, capsys):
        # the first epoch's snapshot gradient at W far from zero overflows
        # before any step
        w0 = tmp_path / "w0.txt"
        save_matrix(1e3 * np.arange(3.0)[:, None] * np.ones((3, 2)), w0)
        rc, err, lines = self._exponential_overflow_run(tmp_path, capsys, vr=True, batch_size=4, w0=str(w0))
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: training aborted at step 0: exponential loss overflow at sample 2")
        assert lines == [CSV_HEADER]

    def test_overflow_in_a_metric_rows_loss_names_the_step(self, tmp_path, capsys):
        # the first full-batch step of size 2000 is finite, but the loss of
        # its metric row overflows
        rc, err, lines = self._exponential_overflow_run(tmp_path, capsys, batch_size=12, c=2000.0, eta0=2000.0,
                                                        epochs=2, log_every=1)
        assert rc == EXIT_NUMERIC
        assert err.startswith("error: training aborted at step 1: exponential loss overflow")
        assert lines == [CSV_HEADER]

    @pytest.mark.parametrize("tol", ["0", "-1e-3", "nan", "inf"])
    def test_margin_tol_out_of_range_exits_2(self, tmp_path, tol):
        # a solver that accepts tol <= 0 never leaves its temperature ladder,
        # so the CLI runs in a child process with a time limit and a 1.5 GB
        # address-space cap
        cap = 1536 * 2**20
        proc = subprocess.run(
            [sys.executable, "-m", "normdescent.cli", "margin", "--dataset", toy_dataset_file(tmp_path),
             "--norm", "ew:2", "--out", str(tmp_path / "w.txt"), f"--tol={tol}"],
            capture_output=True, text=True, timeout=60, env=child_env(),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"error: max_margin tol must be finite and positive, got {float(tol)}\n"
        assert not (tmp_path / "w.txt").exists()

    def test_margin_max_iters_zero_exits_2(self, tmp_path, capsys, monkeypatch):
        # max_margin checks its budget before the first pair-gap pass
        passes = []
        real = reference.pair_gaps
        monkeypatch.setattr(reference, "pair_gaps", lambda *a: passes.append(1) or real(*a))
        out = tmp_path / "w.txt"
        out.write_text("previous W*\n")
        rc = cli_main(["margin", "--dataset", toy_dataset_file(tmp_path), "--norm", "ew:2", "--out", str(out),
                       "--max-iters", "0"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: max_margin max_iters must be at least 1, got 0\n"
        assert passes == []
        assert out.read_text() == "previous W*\n"

    def test_nonconvergence_exits_4(self, tmp_path, capsys):
        data = toy_dataset_file(tmp_path, "nc.txt")
        rc = cli_main(
            ["margin", "--dataset", data, "--norm", "ew:2", "--out", str(tmp_path / "w.txt"),
             "--tol", "1e-7", "--max-iters", "50"]
        )
        capsys.readouterr()
        assert rc == 4

    def test_optional_columns_serialize_empty(self, tmp_path):
        out = train_cmd(write_config(tmp_path, name="opt.json", out_csv=str(tmp_path / "opt.csv")))
        first_row = open(out).read().splitlines()[1].split(",")
        header = CSV_HEADER.split(",")
        assert first_row[header.index("cos_wbar")] == ""

    # case -> the error after "line <n>"
    # case -> the error after the file name; {} is the case's line
    _MALFORMED = {
        "foreign_header": "line {} is not the metric CSV header " + repr(CSV_HEADER),
        "padded_header": "line {} is not the metric CSV header " + repr(CSV_HEADER),
        "byte_order_mark": "'ascii' codec can't decode byte 0xef in position 0: ordinal not in range(128)",
        "cut_last_row": "line {} has 3 fields, expected 12",
        "cut_in_last_cell": "line {} has no line end",
        "extra_field": "line {} has 13 fields, expected 12",
        "empty_loss": "line {}: empty loss cell",
        "infinite_loss": "line {}: non-finite loss 'inf'",
    }

    @pytest.mark.parametrize(
        "case,line",
        [("foreign_header", 1), ("cut_last_row", 31), ("extra_field", 5), ("padded_header", 1),
         ("byte_order_mark", 1), ("cut_in_last_cell", 31), ("empty_loss", 4), ("infinite_loss", 7)],
    )
    def test_fit_rate_rejects_a_malformed_csv(self, tmp_path, capsys, case, line):
        rows = [f"{t},0,0.1,0.1,0.1,0.0,1.0,0.0,{t ** -0.5!r},,,0.0".split(",") for t in range(10, 310, 10)]
        header, end = CSV_HEADER, "\n"
        if case == "foreign_header":
            header, rows = "a,b", [["1", "2"]]
        elif case == "padded_header":
            header = f" {CSV_HEADER} "
        elif case == "byte_order_mark":  # as a spreadsheet may save it
            header = "\ufeff" + CSV_HEADER
        elif case == "cut_last_row":  # a killed run's last line
            rows[-1] = rows[-1][:3]
        elif case == "cut_in_last_cell":  # a killed run's last line, cut after its last comma
            rows[-1][-1], end = "0.", ""
        elif case == "extra_field":
            rows[3].append("7.0")
        else:  # a run writes a loss cell neither empty nor infinite
            rows[line - 2][CSV_HEADER.split(",").index("loss")] = "" if case == "empty_loss" else "inf"
        path = tmp_path / "r.csv"
        path.write_text("\n".join([header, *(",".join(r) for r in rows)]) + end, encoding="utf-8")
        rc = cli_main(["fit-rate", "--csv", str(path), "--t-lo", "10", "--t-hi", "300"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}: {self._MALFORMED[case].format(line)}\n"

    # token -> its error, where it is not float()'s own
    _BAD_CELLS = {
        "5_0": "digit separator '_' in '5_0'",
        " 0.1": "whitespace in ' 0.1'",
        "nan": "non-finite gap_to_gamma 'nan'",
    }

    @pytest.mark.parametrize("column,token,line", [("eta", "x", 2), ("t", "q", 5), ("t", "5_0", 6), ("eta", " 0.1", 3),
                                                   ("gap_to_gamma", "nan", 8)])
    def test_fit_rate_names_a_bad_cell(self, tmp_path, capsys, column, token, line):
        rows = [f"{t},0,0.1,0.1,0.1,0.0,1.0,0.0,{t ** -0.5!r},,,0.0".split(",") for t in range(10, 310, 10)]
        rows[line - 2][CSV_HEADER.split(",").index(column)] = token
        path = tmp_path / "r.csv"
        path.write_text("\n".join([CSV_HEADER, *(",".join(r) for r in rows)]) + "\n")
        rc = cli_main(["fit-rate", "--csv", str(path), "--t-lo", "10", "--t-hi", "300"])
        assert rc == EXIT_CONFIG
        reason = self._BAD_CELLS.get(token, f"could not convert string to float: {token!r}")
        assert capsys.readouterr().err == f"error: {path}: line {line}: {reason}\n"

    def test_fit_rate_cli(self, tmp_path, capsys):
        ts = np.arange(10, 3000, 10)
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for t in ts:
                fh.write(f"{t},0,0.1,0.1,0.1,0.0,1.0,0.0,{float(t)**-0.5!r},,,0.0\n")
        rc = cli_main(["fit-rate", "--csv", str(path), "--t-lo", "10", "--t-hi", "3000"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert abs(out["slope"] + 0.5) < 1e-6
