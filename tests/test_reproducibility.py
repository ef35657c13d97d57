"""Pinned bytes of short training runs.

The reproducibility contract is: the same config gives the same CSV bytes,
given the same numpy version, BLAS build and BLAS thread count. These
sha256 digests pin it for two full-batch runs (ew:2 and ew:inf, a metric
row every step) on a small Gaussian instance, a full-batch sch:inf run on a
Gaussian instance with k > d (so every gradient has full rank and the
Schatten map uses every singular pair), an ew:2 mini-batch run with
momentum and variance reduction, a full-batch ew:2 run on the exponential
loss, two full-batch ew:2 runs that also log the cosine to the sign (ew:inf)
and the normalized (ew:2) bias matrix, and three batch-size-one ``persample``
runs (ew:inf, ew:2 and sch:inf, CSV and verdict, each with the bias matrix
at its own norm) on a small orthogonal scale-skewed instance, and three
batch-size-one ``train`` runs on a Gaussian instance with k = 10 (so each
per-sample gradient's target entry sums nine off-target terms): on
cross-entropy, on the exponential loss, and with momentum and variance
reduction; gamma is given, so no reference solve runs. The bytes do not depend on the memory
layout of the arrays a Dataset is built from: ``TestCallerLayout`` pins
that for the solver and a training run. The digests were recorded
with numpy 2.4.6 and OpenBLAS 0.3.31; a numpy upgrade that changes the
PCG64 ``integers`` stream or the float summation order, a different BLAS,
or a different thread count may change them. A failure here after such an
upgrade means the contract's inputs moved: check the runs, then re-record.
"""

import hashlib
import json

import pytest

import numpy as np

from normdescent import (
    Dataset,
    GaussianSpec,
    NormSpec,
    SkewedSpec,
    gen_gaussian,
    gen_skewed,
    grad,
    harness,
    load_dataset,
    loss,
    max_margin,
    proxy_g,
    save_dataset,
)
from normdescent.cli import EXIT_OK, main as cli_main

PINNED_SHA256 = {
    "ew:2": "9575048e6a1c7009e0cc006dffb519912bf4b6e18a53b36366636e50a64b1c80",
    "ew:inf": "aa9deefa78bfe81c8d6137df0496f77777f85e7c269bd963a03bc282f982acc1",
}


# norm -> (CSV digest, verdict digest)
PINNED_PERSAMPLE_SHA256 = {
    "ew:inf": (
        "231759adfee0363ad8cc62728bd133e6d08a39a7b34657bf1c96b12968ad25e9",
        "e7a9f37ee2ff7eb574b9108e0695986d583b83f8c39df5cfe9244584a7b87606",
    ),
    "ew:2": (
        "f0274a6b1c2142669beed65fdd8c745872e5c26d5a4334a742ac2706263e71b1",
        "0ae6420e9a577225a2e693f399c708eb9a90ba2d08409f407bbd013c7a75bd6c",
    ),
    "sch:inf": (
        "2fc9aa3244ab545a4c2821faa3375176f21704cd5acb672b67cf9ae7e68e4339",
        "26a80405577d2d18bf7c17d2709ebdb3bef094638024354ddb6612690af6591a",
    ),
}

PINNED_FULL_RANK_SCHATTEN_SHA256 = "3b07174e6afe679505e03d1b59479a17f1e5791ec592df569e88f36f26c80d14"
PINNED_MOMENTUM_VR_SHA256 = "96a5530ee89f920a65cc29ca730347fc01686c46d0437616ae6313bb4a697100"
PINNED_EXPONENTIAL_SHA256 = "c8453634c0a1a85f0022e57b4d0e521f0d5802a98b08b26a98e0368598c60ca4"

# batch-size-one train runs on the k = 10 instance: name -> (config, CSV digest)
PINNED_B1_SHA256 = {
    "cross_entropy": ({"norm": "ew:2"}, "73e2357f4374eee7772bd9d94428e63469a52444a29ea041ead6501772dcfde8"),
    "exponential": ({"norm": "sch:inf", "loss": "exponential"}, "a5d5e406212fe593c1864c6b46942d467ced4d294cc493038f8933528c0d0ba7"),
    "momentum_vr": ({"norm": "ew:2", "momentum": True, "beta1": 0.9, "vr": True},
                    "7dc1934c7e2ba224b413f60976f2063e3c5dd88cbb233bbc61209d198e6e0e24"),
}

# wbar_norm -> CSV digest
PINNED_WBAR_SHA256 = {
    "ew:2": "28fd139c7e8244aa3cd650f98df89d467f4571f57ced46b8970deabe2a6e3061",
    "ew:inf": "d44a93e6a9a1f71db9597ff86b881fdbeef95d0c1d6b9f0ebb8851a2f5e6b7ed",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def skewed_path(tmp_path_factory):
    x = np.zeros((3, 5))
    y = np.array([0, 1, 2, 0, 1])
    for i, a in enumerate([1.3, 0.4, 2.2, 0.9, 1.7]):
        x[y[i], i] = a
    path = tmp_path_factory.mktemp("pinned") / "skew.txt"
    save_dataset(Dataset(x, y, 3), path)
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


@pytest.fixture(scope="module")
def k10_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "gauss_k10.txt"
    save_dataset(gen_gaussian(GaussianSpec(k=10, per_class=2, d=6, sigma=0.1, seed=5)), path)
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


@pytest.mark.parametrize("loss_kind", ["cross_entropy", "exponential"])
@pytest.mark.parametrize("vr", [False, True], ids=["plain", "vr"])
@pytest.mark.parametrize("norm", ["ew:2", "ew:inf", "sch:inf"])
def test_momentum_off_and_beta1_zero_write_one_run(tmp_path, dataset_path, norm, vr, loss_kind, capsys):
    # momentum is on exactly when beta1 > 0: momentum on at beta1 = 0, and a
    # beta1 with momentum off, both write the plain run's bytes
    digests = {
        _train_csv(tmp_path, norm=norm, loss=loss_kind, batch_size=4, vr=vr, epochs=10,
                   dataset_path=dataset_path, momentum=momentum, beta1=beta1)
        for momentum, beta1 in ((False, 0.0), (True, 0.0), (False, 0.9))
    }
    capsys.readouterr()
    assert len(digests) == 1


@pytest.mark.parametrize("name", sorted(PINNED_B1_SHA256))
def test_batch_size_one_csv_bytes_pinned(tmp_path, k10_path, name, capsys):
    overrides, pinned = PINNED_B1_SHA256[name]
    digest = _train_csv(tmp_path, batch_size=1, epochs=15, dataset_path=k10_path, **overrides)
    capsys.readouterr()
    assert digest == pinned


def test_full_batch_exponential_loss_csv_bytes_pinned(tmp_path, dataset_path, capsys):
    digest = _train_csv(
        tmp_path, norm="ew:2", loss="exponential", batch_size=12, epochs=60, dataset_path=dataset_path
    )
    capsys.readouterr()
    assert digest == PINNED_EXPONENTIAL_SHA256


@pytest.mark.parametrize("wbar_norm", sorted(PINNED_WBAR_SHA256))
def test_full_batch_wbar_csv_bytes_pinned(tmp_path, dataset_path, wbar_norm, capsys):
    digest = _train_csv(
        tmp_path, norm="ew:2", batch_size=12, epochs=60, wbar_norm=wbar_norm, dataset_path=dataset_path
    )
    capsys.readouterr()
    assert digest == PINNED_WBAR_SHA256[wbar_norm]


def _layouts(x: np.ndarray) -> dict:
    """``x`` C-ordered, F-ordered, and as a strided view into a larger array."""
    d, n = x.shape
    big = np.zeros((2 * d, 3 * n))
    big[1::2, ::3] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "view": big[1::2, ::3]}


class TestCallerLayout:
    """Every Dataset holds its own read-only F-ordered copy of x, so neither the
    layout of the caller's arrays nor later writes to them reach any result."""

    @pytest.fixture(scope="class")
    def acceptance(self):
        return gen_gaussian(GaussianSpec(k=10, per_class=20, d=5, sigma=0.1, seed=12345))

    @pytest.mark.parametrize("norm,tol", [("ew:2", 1e-3), ("sch:inf", 1e-2)])
    def test_solver_bytes_ignore_the_caller_layout(self, acceptance, norm, tol):
        digests = set()
        for x in _layouts(np.array(acceptance.x)).values():
            sol = max_margin(Dataset(x, acceptance.y, acceptance.k), NormSpec.parse(norm), tol=tol)
            digests.add(hashlib.sha256(sol.w_star.tobytes()).hexdigest())
        assert len(digests) == 1

    def test_train_bytes_ignore_the_caller_layout(self, tmp_path, acceptance, monkeypatch, capsys):
        path = tmp_path / "acceptance.txt"
        save_dataset(acceptance, path)
        digests = set()
        for x in _layouts(np.array(acceptance.x)).values():
            ds = Dataset(x, acceptance.y, acceptance.k)
            monkeypatch.setattr(harness, "load_dataset", lambda _, ds=ds: ds)
            # gamma is solved, so the CSV carries the solver's bytes too
            digests.add(_train_csv(tmp_path, norm="sch:inf", batch_size=200, epochs=30, dataset_path=str(path),
                                   gamma=None, margin_tol=1e-2))
        capsys.readouterr()
        assert len(digests) == 1

    @pytest.mark.parametrize("build", ["direct", "file", "gaussian", "skewed"])
    def test_every_dataset_owns_one_layout(self, tmp_path, build):
        x = np.ascontiguousarray([[1.0, -1.0, 0.5], [0.2, 0.3, -0.4]])
        y = np.array([0, 1, 1])
        if build == "direct":
            ds = Dataset(x, y, 2)
        elif build == "file":
            save_dataset(Dataset(x, y, 2), tmp_path / "d.txt")
            ds = load_dataset(tmp_path / "d.txt")
        elif build == "gaussian":
            ds = gen_gaussian(GaussianSpec(k=3, per_class=2, d=2, sigma=0.1, seed=1))
        else:
            ds = gen_skewed(SkewedSpec(counts=(2, 1), alpha_ranges=((1.0, 2.0), (1.0, 2.0)), seed=1))
        assert ds.x.dtype == np.float64 and ds.x.flags.f_contiguous and not ds.x.flags.writeable
        assert ds.y.dtype == np.int64 and not ds.y.flags.writeable
        assert not np.shares_memory(ds.x, x) and not np.shares_memory(ds.y, y)
        assert ds.full.x is ds.x

    def test_arrays_are_read_only_copies(self, rng):
        x = rng.standard_normal((3, 6))
        y = np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)
        ds = Dataset(x, y, 3)
        w = rng.standard_normal((3, 3))
        before = (grad(w, ds), grad(w, ds, range(6)), loss(w, ds), proxy_g(w, ds), ds.r_bound)
        x *= 2.0
        y[:] = y[::-1]
        after = (grad(w, ds), grad(w, ds, range(6)), loss(w, ds), proxy_g(w, ds), ds.r_bound)
        assert [np.asarray(v).tobytes() for v in after] == [np.asarray(v).tobytes() for v in before]
        for a in (ds.x, ds.y):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
