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
from .reference import MaxMarginNonConvergence, max_margin

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
        if min(self.k, self.per_class, self.d) < 1:
            raise ValueError("GaussianSpec k, per_class and d must be positive")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"GaussianSpec sigma must be finite and >= 0, got {self.sigma!r}")
        if self.seed < 0:
            raise ValueError(f"GaussianSpec seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SkewedSpec:
    counts: tuple[int, ...]
    alpha_ranges: tuple[tuple[float, float], ...]
    seed: int

    def __post_init__(self):
        if len(self.alpha_ranges) != len(self.counts):
            raise ValueError("counts and alpha_ranges must have one entry per class")
        if any(c < 1 for c in self.counts):
            raise ValueError("every class needs at least one sample")
        for lo, hi in self.alpha_ranges:
            if not (0.0 < lo <= hi < np.inf):
                raise ValueError(f"alpha ranges must satisfy 0 < lo <= hi < inf, got {lo!r}:{hi!r}")
        if self.seed < 0:
            raise ValueError(f"SkewedSpec seed must be non-negative, got {self.seed}")


def gen_gaussian(spec: GaussianSpec) -> Dataset:
    """Class means uniform on the sphere, features mean + N(0, sigma^2 I).

    Regenerates with a derived seed until the margin probe reports
    gamma > 1e-3 under the Frobenius geometry; a probe that does not
    converge rejects its draw too. Raises SeparabilityError once
    ``_MAX_RETRIES`` attempts are used up.
    """
    y = np.repeat(np.arange(spec.k), spec.per_class)
    for retry in range(_MAX_RETRIES):
        rng = np.random.default_rng([spec.seed, retry])
        means = rng.standard_normal((spec.k, spec.d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        # one (k, d, per_class) draw is the stream of k per-class (d, per_class)
        # draws; concatenate lays the class blocks side by side in C order
        noise = rng.standard_normal((spec.k, spec.d, spec.per_class))
        x = np.concatenate(means[:, :, None] + spec.sigma * noise, axis=1)
        ds = Dataset(x, y, spec.k)
        try:
            probe = max_margin(ds, NormSpec("ew", 2.0), tol=_PROBE_TOL, max_iters=_PROBE_ITERS)
        except MaxMarginNonConvergence:  # no certified margin: redraw
            continue
        if probe.gamma > _PROBE_MARGIN:
            return ds
    raise SeparabilityError(
        f"no separable draw in {_MAX_RETRIES} attempts (seed {spec.seed}); lower sigma or raise d"
    )


def gen_skewed(spec: SkewedSpec) -> Dataset:
    """Orthogonal scale-skewed data: x = alpha * e_class, alpha ~ U(lo, hi).

    Scales are drawn class by class, then samples are interleaved
    round-robin across classes so no class is clustered at one end of the
    epoch. Always separable; d = k = len(spec.counts) by construction.
    """
    k = len(spec.counts)
    rng = np.random.default_rng(spec.seed)
    alphas = [rng.uniform(lo, hi, size=cnt) for (lo, hi), cnt in zip(spec.alpha_ranges, spec.counts)]
    # round r places the r-th sample of every class that has one, in class order
    slots = sorted((r, c) for c, cnt in enumerate(spec.counts) for r in range(cnt))
    y = np.array([c for _, c in slots], dtype=np.int64)
    x = np.zeros((k, y.size))
    x[y, np.arange(y.size)] = [alphas[c][r] for r, c in slots]
    return Dataset(x, y, k)
