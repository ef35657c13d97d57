"""Pinned bytes of short entry-wise training runs.

The reproducibility contract is: the same config gives the same CSV bytes,
given the same numpy version, BLAS build and BLAS thread count. These
sha256 digests pin it for two full-batch runs (ew:2 and ew:inf, a metric
row every step) on a small Gaussian instance. The digests were recorded
with numpy 2.4.6 and OpenBLAS 0.3.31; a numpy upgrade that changes the
PCG64 ``integers`` stream or the float summation order, a different BLAS,
or a different thread count may change them. A failure here after such an
upgrade means the contract's inputs moved: check the runs, then re-record.
"""

import hashlib
import json

import pytest

from normdescent import GaussianSpec, gen_gaussian, save_dataset
from normdescent.cli import EXIT_OK, main as cli_main

PINNED_SHA256 = {
    "ew:2": "9575048e6a1c7009e0cc006dffb519912bf4b6e18a53b36366636e50a64b1c80",
    "ew:inf": "aa9deefa78bfe81c8d6137df0496f77777f85e7c269bd963a03bc282f982acc1",
}


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "gauss.txt"
    save_dataset(gen_gaussian(GaussianSpec(k=3, per_class=4, d=3, sigma=0.1, seed=5)), path)
    return str(path)


@pytest.mark.parametrize("norm", sorted(PINNED_SHA256))
def test_full_batch_csv_bytes_pinned(tmp_path, dataset_path, norm, capsys):
    out_csv = tmp_path / "run.csv"
    cfg = {
        "norm": norm, "loss": "cross_entropy", "batch_size": 12, "momentum": False,
        "beta1": 0.0, "vr": False, "c": 0.5, "a": 0.5, "eta0": 0.5, "epochs": 60,
        "seed": 9, "dataset_path": dataset_path, "w0": "zeros", "out_csv": str(out_csv),
        "gamma": 0.2, "log_every": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train", "--config", str(cfg_path)]) == EXIT_OK
    capsys.readouterr()
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert digest == PINNED_SHA256[norm]
