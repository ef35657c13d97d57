"""End-to-end command-line workflow in a temporary directory.

Generates a dataset, solves its reference margin, writes a run config,
trains with CSV metrics, fits the margin-gap decay rate, and runs a tiny
sweep -- the same steps the acceptance experiments use, wired through the
CLI entry points instead of the library API.
"""

import contextlib
import io
import json
import os
import tempfile

from normdescent.cli import main as cli

work = tempfile.mkdtemp(prefix="normdescent_demo_")
print(f"working in {work}\n")


def sh(args):
    """Run one CLI command, echo it and its output, and return its stdout."""
    print(f"$ normdescent {' '.join(args)}")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli(args)
    print(out.getvalue(), end="")
    print(f"(exit {rc})\n")
    assert rc == 0
    return out.getvalue()


data = os.path.join(work, "gauss.txt")
sh(["gen-data", "gaussian", "--out", data, "--k", "5", "--per-class", "8",
    "--d", "4", "--sigma", "0.1", "--seed", "21"])

wstar = os.path.join(work, "wstar.txt")
solved = sh(["margin", "--dataset", data, "--norm", "ew:2", "--out", wstar,
    "--tol", "1e-3", "--max-iters", "60000"])

config = {
    "norm": "ew:2",
    "loss": "cross_entropy",
    "batch_size": 40,
    "momentum": False,
    "beta1": 0.0,
    "vr": False,
    "c": 0.5,
    "a": 0.5,
    "eta0": 0.5,
    "epochs": 4000,
    "seed": 7,
    "dataset_path": data,
    "w0": "zeros",
    "out_csv": os.path.join(work, "trace.csv"),
    "gamma": json.loads(solved)["gamma"],  # wstar_path needs the gamma solved with it
    "wstar_path": wstar,
    "log_every": 10,
}
cfg_path = os.path.join(work, "run.json")
with open(cfg_path, "w") as fh:
    json.dump(config, fh, indent=2)
print(f"wrote {cfg_path}")

sh(["train", "--config", cfg_path])
sh(["fit-rate", "--csv", config["out_csv"], "--t-lo", "400", "--t-hi", "4000"])

sweep_dir = os.path.join(work, "sweep")
os.makedirs(sweep_dir)
for b in (8, 40):
    cfg = dict(config, batch_size=b)
    cfg["epochs"] = 2000 // (40 // b)  # 2000 steps regardless of batch size
    cfg["out_csv"] = os.path.join(work, f"sweep_b{b}.csv")
    with open(os.path.join(sweep_dir, f"b{b}.json"), "w") as fh:
        json.dump(cfg, fh)
sh(["sweep", "--config-dir", sweep_dir, "--out-summary", os.path.join(work, "summary.json")])

print("outputs:")
for name in sorted(os.listdir(work)):
    print("  ", name)
