"""Synthetic dataset generators.

Two families: separable Gaussian clouds (class means on the unit sphere
plus isotropic noise, rejection-sampled until a margin probe certifies
separability) and orthogonal scale-skewed data (each sample is a positive
multiple of its class basis vector, with per-class scale ranges and
arbitrary class imbalance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NormSpec
from .model import Dataset
from .reference import max_margin

_PROBE_MARGIN = 1e-3
_PROBE_TOL = 0.05  # coarse ladder: the probe needs a margin estimate, not a certificate
_PROBE_ITERS = 4000
_MAX_RETRIES = 8  # derived-seed redraws before giving up


class SeparabilityError(RuntimeError):
    """Gaussian generator exhausted its retries without separable data."""


@dataclass(frozen=True)
class GaussianSpec:
    k: int
    per_class: int
    d: int
    sigma: float
    seed: int

    def __post_init__(self):
        if min(self.k, self.per_class, self.d) < 1 or self.sigma < 0.0:
            raise ValueError("GaussianSpec fields must be positive (sigma >= 0)")


@dataclass(frozen=True)
class SkewedSpec:
    k: int
    counts: tuple[int, ...]
    alpha_ranges: tuple[tuple[float, float], ...]
    seed: int

    def __post_init__(self):
        if len(self.counts) != self.k or len(self.alpha_ranges) != self.k:
            raise ValueError("counts and alpha_ranges must have one entry per class")
        if any(c < 1 for c in self.counts):
            raise ValueError("every class needs at least one sample")
        for lo, hi in self.alpha_ranges:
            if not (0.0 < lo <= hi):
                raise ValueError("alpha ranges must satisfy 0 < lo <= hi")


def gen_gaussian(spec: GaussianSpec) -> Dataset:
    """Class means uniform on the sphere, features mean + N(0, sigma^2 I).

    Regenerates with a derived seed until the margin probe reports
    gamma > 1e-3 under the Frobenius geometry; raises SeparabilityError
    once ``_MAX_RETRIES`` attempts are used up.
    """
    for retry in range(_MAX_RETRIES):
        rng = np.random.default_rng([spec.seed, retry])
        means = rng.standard_normal((spec.k, spec.d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        n = spec.k * spec.per_class
        x = np.zeros((spec.d, n))
        y = np.zeros(n, dtype=np.int64)
        for c in range(spec.k):
            lo = c * spec.per_class
            x[:, lo : lo + spec.per_class] = (
                means[c][:, None] + spec.sigma * rng.standard_normal((spec.d, spec.per_class))
            )
            y[lo : lo + spec.per_class] = c
        ds = Dataset.from_arrays(x, y, spec.k)
        probe = max_margin(ds, NormSpec("entrywise", 2.0), tol=_PROBE_TOL, max_iters=_PROBE_ITERS)
        if probe.gamma > _PROBE_MARGIN:
            return ds
    raise SeparabilityError(
        f"no separable draw in {_MAX_RETRIES} attempts (seed {spec.seed}); lower sigma or raise d"
    )


def gen_skewed(spec: SkewedSpec) -> Dataset:
    """Orthogonal scale-skewed data: x = alpha * e_class, alpha ~ U(lo, hi).

    Scales are drawn class by class, then samples are interleaved
    round-robin across classes so no class is clustered at one end of the
    epoch. Always separable; d = k by construction.
    """
    rng = np.random.default_rng(spec.seed)
    alphas = [rng.uniform(lo, hi, size=cnt) for (lo, hi), cnt in zip(spec.alpha_ranges, spec.counts)]
    n = sum(spec.counts)
    x = np.zeros((spec.k, n))
    y = np.zeros(n, dtype=np.int64)
    taken = [0] * spec.k
    pos = 0
    while pos < n:
        for c in range(spec.k):
            if taken[c] < spec.counts[c]:
                x[c, pos] = alphas[c][taken[c]]
                y[pos] = c
                taken[c] += 1
                pos += 1
    return Dataset.from_arrays(x, y, spec.k)
