#!/usr/bin/env python3
"""Benchmark of the normdescent CLI.

    python3 perfbench/run.py --workload fullbatch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

A run sets the BLAS libraries to one thread before numpy loads, sets the
workload up at least SETUP_REPEATS times and for at least SETUP_MIN_SECONDS
(``setup_s`` is the median of the set-ups, each counted with the time a
fresh interpreter takes to import the CLI), then repeats rounds of the
workload's CLI calls for ``--seconds``. Each call's output is checked; a
failed call is counted and the round goes on.

The speed of a shared host drifts, by a quarter and more between runs a
few minutes apart, and process CPU time drifts with it. So a fixed reference
computation that uses no normdescent code is timed before every set-up and
every call, and the end-to-end times are reported at reference speed: the
measured time x host_speed, where host_speed = REFERENCE_S / the run's
median reference time. The measured times and host_speed are printed too.

With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json,
timed with tracing off. With ``--trace 1`` it alternates untraced and traced
rounds and prints the per-layer metrics instead: medians over the traced
rounds, plus the tracing overhead and a traced set-up pass for the data
layer. The spans are written to .perfbench/ in the checkout.

Every metric is printed as ``name value unit``, then an environment record,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in its own process and prints their results together.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# cheap set-ups repeat for this long, so that the import time is a median too
SETUP_MIN_SECONDS = 2.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import normdescent.cli; print(time.perf_counter() - t)"
# the reference computation's time on the host that defines "reference speed"
REFERENCE_S = 0.02
# five pieces of 500 iterations; their median is robust to an interrupt
REFERENCE_PIECES = 5
REFERENCE_ITERS = 500
ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"


def reference_seconds() -> float:
    """Time of a fixed computation with the mix the workloads spend their
    time on: scalar random draws, small matrix products and interpreter
    arithmetic. It must never change, since it defines the time unit."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    a = np.linspace(-1.0, 1.0, 50).reshape(10, 5)
    acc = 0.0
    pieces = []
    for _ in range(REFERENCE_PIECES):
        t0 = perf_counter()
        for i in range(REFERENCE_ITERS):
            acc += float(np.abs(a @ a.T).sum()) + int(rng.integers(0, i % 199 + 1))
            for k in range(20):
                acc += k * 0.5
        pieces.append(perf_counter() - t0)
    return statistics.median(pieces) * REFERENCE_PIECES


@dataclass
class Round:
    wall_s: float = 0.0
    reference_s: list[float] = field(default_factory=list)
    steps: int = 0
    csv_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def run_round(main, calls) -> Round:
    """Make each call in turn; only the calls themselves are timed."""
    r = Round()
    for call in calls:
        r.reference_s.append(reference_seconds())
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                code = main(call.argv)
        except Exception as exc:  # a failing call is counted and the round goes on
            code = f"{type(exc).__name__}: {exc}"
        r.wall_s += perf_counter() - t0
        r.attempted += 1
        outcome = call.outcome(code, buf.getvalue())
        r.steps += outcome.steps
        r.csv_bytes += outcome.csv_bytes
        if outcome.failure:
            r.failures.append(outcome.failure)
    return r


def import_seconds() -> float:
    """Time a fresh interpreter takes to import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def timed_run(cli, wl, seconds: float):
    """End-to-end metrics with tracing off."""
    reference_seconds()  # warm up
    setups, references = [], []
    setup_end = perf_counter() + SETUP_MIN_SECONDS
    while len(setups) < SETUP_REPEATS or perf_counter() < setup_end:
        references.append(reference_seconds())
        t0 = perf_counter()
        wl.setup(cli.main)
        body = perf_counter() - t0
        setups.append(import_seconds() + body)
    calls = wl.calls()
    rounds = []
    deadline = perf_counter() + seconds
    while not rounds or perf_counter() < deadline:
        rounds.append(run_round(cli.main, calls))
    references += [x for r in rounds for x in r.reference_s]
    measured = {
        "setup_s.measured": statistics.median(setups),
        "wall_s.measured": statistics.median(r.wall_s for r in rounds),
        "host_speed": REFERENCE_S / statistics.median(references),
    }
    speed = measured["host_speed"]
    metrics = {
        "setup_s": measured["setup_s.measured"] * speed,
        "wall_s": measured["wall_s.measured"] * speed,
        "steps_per_s": statistics.median(r.steps / r.wall_s for r in rounds) / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, measured, rounds


def traced_run(cli, wl, seconds: float, spans_path: Path):
    """Per-layer metrics: untraced and traced rounds alternate."""
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        wl.setup(cli.main)
    finally:
        tr.uninstall()
    metrics = tracer.setup_metrics(tr, 0, len(tr))
    calls = wl.calls()
    traced_main = tr.wrap(cli.main, "cli", "main")
    plain, traced, per_round = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(run_round(cli.main, calls))
        lo = len(tr)
        tr.install()
        try:
            r = run_round(traced_main, calls)
        finally:
            tr.uninstall()
        traced.append(r)
        per_round.append(tracer.body_metrics(tr, lo, len(tr), r.wall_s, r.csv_bytes))
    for name in per_round[0]:  # median_low keeps counts whole
        metrics[name] = statistics.median_low(m[name] for m in per_round)
    metrics["trace.overhead_ratio"] = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in plain
    )
    tr.dump(spans_path)
    return metrics, {}, plain + traced


def environment(wl) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas_text = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu": cpu,
        "seed": wl.seed,
        "data_seed": wl.data_seed,
    }


def run_workload(args, declared: dict) -> int:
    import normdescent.cli as cli
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](Path(tmp), args.seed, args.data_seed)
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}.tsv"
            metrics, measured, rounds = traced_run(cli, wl, args.seconds, spans_path)
        else:
            metrics, measured, rounds = timed_run(cli, wl, args.seconds)
    if set(metrics) != set(declared):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)} trace {args.trace}")
    print("env " + json.dumps(environment(wl), sort_keys=True))
    for name, unit in declared.items():
        print(f"{name} {metrics[name]!r} {unit}")
    for name, value in measured.items():
        print(f"{name} {value!r} {'ratio' if name == 'host_speed' else 's'}")
    print(f"error_rate {len(failures) / attempted!r} ratio")
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Every workload in a fresh process; their results as one object."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.data_seed is not None:
            argv += ["--data-seed", str(args.data_seed)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="fullbatch, persample, refsolve, or all")
    parser.add_argument("--seed", type=int, default=1, help="shuffles the dataset file and seeds training")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long the rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=None,
                        help="dataset generator seed (default: the acceptance instance)")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before anything imports numpy
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "normdescent" / "__init__.py").is_file():
        print(f"error: no normdescent sources under {src}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    sys.path.insert(0, str(src))
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    return run_workload(args, declared)


if __name__ == "__main__":
    raise SystemExit(main())
