import os

import numpy as np
import pytest

from normdescent import Dataset


def pytest_report_header(config):
    """The inputs every sha256 pin depends on: numpy, its BLAS, the BLAS thread count."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
        f"OPENBLAS_NUM_THREADS={threads}"
    )


def random_dataset(rng, k=None, d=None, n=None):
    """Small random classification dataset with every class present."""
    k = k or int(rng.integers(2, 6))
    d = d or int(rng.integers(1, 6))
    if n is None:
        n = int(rng.integers(k, 25))
    y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(y)
    x = rng.standard_normal((d, n))
    return Dataset(x, y, k)


def divisible_dataset(rng, k, d, n):
    """Random dataset with an exact sample count (for batch-divisibility)."""
    y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(y)
    x = rng.standard_normal((d, n))
    return Dataset(x, y, k)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
