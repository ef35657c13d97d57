"""Pinned bytes of short training runs.

The reproducibility contract is: the same config gives the same CSV bytes,
given the same numpy version, BLAS build and BLAS thread count. These
sha256 digests pin it for two full-batch runs (ew:2 and ew:inf, a metric
row every step) on a small Gaussian instance, a full-batch sch:inf run on a
Gaussian instance with k > d (so every gradient has full rank and the
Schatten map uses every singular pair), an ew:2 mini-batch run with
momentum and variance reduction, and three batch-size-one ``persample``
runs (ew:inf, ew:2 and sch:inf, CSV and verdict) on a small orthogonal
scale-skewed instance; gamma is given, so no reference solve runs. The
digests were recorded
with numpy 2.4.6 and OpenBLAS 0.3.31; a numpy upgrade that changes the
PCG64 ``integers`` stream or the float summation order, a different BLAS,
or a different thread count may change them. A failure here after such an
upgrade means the contract's inputs moved: check the runs, then re-record.
"""

import hashlib
import json

import pytest

import numpy as np

from normdescent import Dataset, GaussianSpec, gen_gaussian, save_dataset
from normdescent.cli import EXIT_OK, main as cli_main

PINNED_SHA256 = {
    "ew:2": "9575048e6a1c7009e0cc006dffb519912bf4b6e18a53b36366636e50a64b1c80",
    "ew:inf": "aa9deefa78bfe81c8d6137df0496f77777f85e7c269bd963a03bc282f982acc1",
}


# norm -> (CSV digest, verdict digest)
PINNED_PERSAMPLE_SHA256 = {
    "ew:inf": (
        "231759adfee0363ad8cc62728bd133e6d08a39a7b34657bf1c96b12968ad25e9",
        "74a7a1b2c31efb2dda0529fef2d3cd1d4bcc9b212d03302342b9328859256559",
    ),
    "ew:2": (
        "19fd77a8da81672adcf4659afc8688ca2026e6a8e46afcf0f5564e7532b4cb24",
        "b03ae772a7093d972919e9d3c1c8109bedfbf776b7833bd66108931bbe04d9dc",
    ),
    "sch:inf": (
        "aba07670999327c1c38cf74cff1aba005cc5c96969a41d83fe3df39723a4fe85",
        "ec849c58f61971393c70d190ae6fdd06fd3b7536ee2f2ba0f5ab45e79c3f0595",
    ),
}

PINNED_FULL_RANK_SCHATTEN_SHA256 = "3b07174e6afe679505e03d1b59479a17f1e5791ec592df569e88f36f26c80d14"
PINNED_MOMENTUM_VR_SHA256 = "96a5530ee89f920a65cc29ca730347fc01686c46d0437616ae6313bb4a697100"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def skewed_path(tmp_path_factory):
    x = np.zeros((3, 5))
    y = np.array([0, 1, 2, 0, 1])
    for i, a in enumerate([1.3, 0.4, 2.2, 0.9, 1.7]):
        x[y[i], i] = a
    path = tmp_path_factory.mktemp("pinned") / "skew.txt"
    save_dataset(Dataset.from_arrays(x, y, 3), path)
    return str(path)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "gauss.txt"
    save_dataset(gen_gaussian(GaussianSpec(k=3, per_class=4, d=3, sigma=0.1, seed=5)), path)
    return str(path)


@pytest.fixture(scope="module")
def full_rank_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "gauss_k4.txt"
    save_dataset(gen_gaussian(GaussianSpec(k=4, per_class=3, d=3, sigma=0.1, seed=5)), path)
    return str(path)


def _train_csv(tmp_path, **cfg) -> str:
    out_csv = tmp_path / "run.csv"
    cfg = {
        "loss": "cross_entropy", "momentum": False, "beta1": 0.0, "vr": False, "c": 0.5, "a": 0.5,
        "eta0": 0.5, "seed": 9, "w0": "zeros", "out_csv": str(out_csv), "gamma": 0.2, "log_every": 1,
        **cfg,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train", "--config", str(cfg_path)]) == EXIT_OK
    return _sha256(out_csv)


@pytest.mark.parametrize("norm", sorted(PINNED_SHA256))
def test_full_batch_csv_bytes_pinned(tmp_path, dataset_path, norm, capsys):
    digest = _train_csv(tmp_path, norm=norm, batch_size=12, epochs=60, dataset_path=dataset_path)
    capsys.readouterr()
    assert digest == PINNED_SHA256[norm]


@pytest.mark.parametrize("norm", sorted(PINNED_PERSAMPLE_SHA256))
def test_persample_bytes_pinned(tmp_path, skewed_path, norm, capsys):
    out_csv = tmp_path / "ps.csv"
    cfg = {
        "norm": norm, "loss": "cross_entropy", "batch_size": 1, "momentum": False,
        "beta1": 0.0, "vr": False, "c": 0.5, "a": 0.5, "eta0": 0.5, "epochs": 40,
        "seed": 4, "dataset_path": skewed_path, "w0": "zeros", "out_csv": str(out_csv),
        "gamma": 0.3, "log_every": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["persample", "--config", str(cfg_path)]) == EXIT_OK
    capsys.readouterr()
    verdict = tmp_path / "ps.csv.verdict.json"
    assert (_sha256(out_csv), _sha256(verdict)) == PINNED_PERSAMPLE_SHA256[norm]


def test_full_batch_full_rank_schatten_csv_bytes_pinned(tmp_path, full_rank_path, capsys):
    digest = _train_csv(tmp_path, norm="sch:inf", batch_size=12, epochs=60, dataset_path=full_rank_path)
    capsys.readouterr()
    assert digest == PINNED_FULL_RANK_SCHATTEN_SHA256


def test_minibatch_momentum_vr_csv_bytes_pinned(tmp_path, dataset_path, capsys):
    digest = _train_csv(
        tmp_path, norm="ew:2", batch_size=4, momentum=True, beta1=0.9, vr=True, epochs=20,
        dataset_path=dataset_path,
    )
    capsys.readouterr()
    assert digest == PINNED_MOMENTUM_VR_SHA256
