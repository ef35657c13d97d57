"""Benchmark workloads: set-up, the CLI calls of one round, and the check
applied to each call's output.

Every workload drives ``normdescent.cli.main`` in process, one call after
the other (a closed loop with one caller). The dataset comes from the
dataset seed (default: the acceptance instance), and the benchmark seed
shuffles the order of the samples in the dataset file and seeds the
training runs. The program only sees the generated files. Shuffling the
samples leaves every margin problem unchanged, so each seed does the same
amount of work: Frank-Wolfe iteration counts are identical across seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# acceptance Gaussian instance: k=10, 20 per class, d=5 (n=200)
GAUSSIAN = ["gaussian", "--k", "10", "--per-class", "20", "--d", "5", "--sigma", "0.1"]
GAUSSIAN_SEED = 12345
# criterion-9 skewed instance: k=5, counts 6,3,3,2,1 (n=15), default scale ranges
SKEWED = ["skewed", "--counts", "6,3,3,2,1"]
SKEWED_SEED = 42

# reference tolerances: ew:2 at the CLI default, the other balls coarser
REFSOLVE_TOLS = (("ew:2", 1e-3), ("ew:inf", 1e-2), ("sch:inf", 1e-2))
# gamma of each reference solve, by dataset seed; refsolve checks against it
RECORDED_GAMMA = {
    GAUSSIAN_SEED: {"ew:2": 0.11012505571578075, "ew:inf": 0.5094250068651314, "sch:inf": 0.19109004435940902},
}

FULLBATCH_EPOCHS = 500  # b = n, so one step per epoch
FULLBATCH_STEP_C = (("ew:2", 0.5), ("ew:inf", 0.05), ("sch:inf", 0.5))
PERSAMPLE_EPOCHS = 200  # b = 1, so n = 15 steps per epoch


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    steps: int = 0
    csv_bytes: int = 0
    failure: str | None = None


@dataclass
class Call:
    """One CLI invocation and the check of its JSON output."""

    argv: list[str]
    check: Callable[[dict], Outcome]

    def outcome(self, code, stdout: str) -> Outcome:
        """Judge a finished call: ``code`` is the exit code, or the text of
        the exception the call raised."""
        if code != 0:
            return Outcome(failure=f"{self.argv[0]}: exit {code}")
        try:
            out = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            return Outcome(failure=f"{self.argv[0]}: unreadable output ({exc})")
        return self.check(out)


def invoke(main, argv: list[str]) -> dict:
    """Run a set-up CLI call and return its JSON output; raise if it fails."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SetupError(f"{' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _norm_key(norm: str) -> str:
    return norm.replace(":", "")


def _csv_check(steps: int, log_every: int, header: str, extra=None):
    """Check a training call: row count, header, and byte-identical reruns."""
    first_digest = None

    def check(out: dict) -> Outcome:
        nonlocal first_digest
        data = Path(out["out_csv"]).read_bytes()
        lines = data.decode("ascii").splitlines()
        if lines[:1] != [header] or len(lines) != 1 + steps // log_every:
            return Outcome(failure=f"{out['out_csv']}: {len(lines)} lines, expected {1 + steps // log_every}")
        digest = hashlib.sha256(data).hexdigest()
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            return Outcome(failure=f"{out['out_csv']}: bytes differ from the first run of this config")
        failure = extra(out) if extra else None
        return Outcome(steps=0 if failure else steps, csv_bytes=len(data), failure=failure)

    return check


def _invariant_ok(out: dict):
    return None if out.get("invariant_gradient_ok") is True else "persample: invariant_gradient_ok is not true"


def _margin_check(norm: str, tol: float, gamma):
    """Check a reference solve: separable, certified, and gamma as recorded."""

    def check(out: dict) -> Outcome:
        if out["separable"] is not True:
            return Outcome(failure=f"margin {norm}: not separable")
        if not out["certificate_gap"] <= 10.0 * tol:
            return Outcome(failure=f"margin {norm}: certificate gap {out['certificate_gap']} > 10*tol")
        if gamma is not None and not abs(out["gamma"] - gamma) <= tol:
            return Outcome(failure=f"margin {norm}: gamma {out['gamma']} differs from recorded {gamma}")
        return Outcome(steps=int(out["iterations_used"]))

    return check


class Workload:
    """Inputs written under ``workdir``; ``calls`` lists one round."""

    family: list[str]
    default_data_seed: int

    def __init__(self, workdir: Path, seed: int, data_seed: int | None = None):
        self.workdir = workdir
        self.seed = seed
        self.data_seed = self.default_data_seed if data_seed is None else data_seed
        self.dataset = workdir / "data.txt"
        self.n = 0

    def setup(self, main):
        """Generate the dataset from the dataset seed, then shuffle its
        sample lines with the benchmark seed."""
        raw = self.workdir / "generated.txt"
        info = invoke(main, ["gen-data", *self.family, "--out", str(raw), "--seed", str(self.data_seed)])
        self.n = int(info["n"])
        header, *rows = raw.read_text(encoding="ascii").splitlines(keepends=True)
        random.Random(self.seed).shuffle(rows)
        self.dataset.write_text(header + "".join(rows), encoding="ascii")

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def _margin_argv(self, norm: str, tol: float) -> list[str]:
        wstar = self.workdir / f"wstar_{_norm_key(norm)}.txt"
        return ["margin", "--dataset", str(self.dataset), "--norm", norm, "--out", str(wstar), "--tol", repr(tol)]

    def _write_config(self, name: str, fields: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(fields), encoding="utf-8")
        return path

    def _train_fields(self, name: str, norm: str, c: float, batch_size: int, epochs: int, log_every: int) -> dict:
        return {
            "norm": norm,
            "loss": "cross_entropy",
            "batch_size": batch_size,
            "momentum": False,
            "beta1": 0.0,
            "vr": False,
            "c": c,
            "a": 0.5,
            "eta0": c,
            "epochs": epochs,
            "seed": self.seed,
            "dataset_path": str(self.dataset),
            "w0": "zeros",
            "out_csv": str(self.workdir / f"{name}.csv"),
            "log_every": log_every,
        }


class FullBatch(Workload):
    """Three full-batch ``train`` calls against precomputed references."""

    family = GAUSSIAN
    default_data_seed = GAUSSIAN_SEED
    log_every = 10

    def setup(self, main):
        super().setup(main)
        self.refs = {}
        for norm, tol in REFSOLVE_TOLS:
            argv = self._margin_argv(norm, tol)
            out = invoke(main, argv)
            self.refs[norm] = (out["gamma"], argv[argv.index("--out") + 1])

    def calls(self) -> list[Call]:
        from normdescent.harness import CSV_HEADER

        out = []
        for norm, c in FULLBATCH_STEP_C:
            name = f"train_{_norm_key(norm)}"
            fields = self._train_fields(name, norm, c, self.n, FULLBATCH_EPOCHS, self.log_every)
            fields["gamma"], fields["wstar_path"] = self.refs[norm]
            cfg = self._write_config(name, fields)
            out.append(Call(["train", "--config", str(cfg)],
                            _csv_check(FULLBATCH_EPOCHS, self.log_every, CSV_HEADER)))
        return out


class PerSample(Workload):
    """Three batch-size-one ``persample`` calls; each solves its reference."""

    family = SKEWED
    default_data_seed = SKEWED_SEED
    log_every = 100

    def calls(self) -> list[Call]:
        from normdescent.harness import CSV_HEADER

        steps = PERSAMPLE_EPOCHS * self.n
        out = []
        for norm in ("ew:inf", "ew:2", "sch:inf"):
            name = f"persample_{_norm_key(norm)}"
            fields = self._train_fields(name, norm, 0.5, 1, PERSAMPLE_EPOCHS, self.log_every)
            fields.update(margin_tol=0.01, margin_iters=30000)
            cfg = self._write_config(name, fields)
            out.append(Call(["persample", "--config", str(cfg)],
                            _csv_check(steps, self.log_every, CSV_HEADER, _invariant_ok)))
        return out


class RefSolve(Workload):
    """Three ``margin`` calls: Frank-Wolfe only, no training."""

    family = GAUSSIAN
    default_data_seed = GAUSSIAN_SEED

    def calls(self) -> list[Call]:
        recorded = RECORDED_GAMMA.get(self.data_seed, {})
        if not recorded:
            print(f"note: no recorded gamma for data seed {self.data_seed}; gamma is not checked", file=sys.stderr)
        out = []
        for norm, tol in REFSOLVE_TOLS:
            out.append(Call(self._margin_argv(norm, tol), _margin_check(norm, tol, recorded.get(norm))))
        return out


WORKLOADS = {"fullbatch": FullBatch, "persample": PerSample, "refsolve": RefSolve}
