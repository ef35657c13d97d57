"""The batch–momentum–variance-reduction trade-off, as orderings between runs.

The paper's three claims on the acceptance Gaussian instance (k = 10,
n = 200, d = 5): without momentum a mini-batch run keeps a larger margin gap
than the full batch; momentum β1 = 0.99 and variance reduction each keep the
full-batch gap at any batch size. Every run takes 5000 steps of
η_t = c t^(-1/2) (c = 0.5, and 0.05 at ew:inf) from W = 0 with seed 7, at
b ∈ {200, 20, 5}; VR runs at b < n only, since at b = n its signal is the
full gradient.

A gap gamma - margin(W) compared between two runs is a margin compared
between them, so no reference solve is needed: each run is measured by its
deficit, the full-batch run's normalized margin minus its own.

* A plain mini-batch run loses at least ``PLAIN_LOSS`` of the full-batch
  margin. On seeds 7, 8 and 9 the smaller of the two losses (b = 20 or 5)
  was 24% at ew:2, 55% at ew:inf and 53-57% at sch:inf, where b = 5 lost
  less than b = 20 on two seeds of three.
* A momentum or VR run's deficit is at most ``KEPT`` times the smaller
  plain deficit at the norm. The largest share on those seeds was 0.125,
  VR at sch:inf and b = 5; it was at most 0.031 at ew:2 and 0.001 at
  ew:inf.
"""

import functools

import numpy as np
import pytest

from normdescent import GaussianSpec, NormSpec, OptimizerConfig, Schedule, gen_gaussian, margin_report, run

STEPS = 5000
SEED = 7
BATCHES = (200, 20, 5)
REGIMES = {"plain": (0.0, False), "momentum": (0.99, False), "vr": (0.0, True)}
STEP_CONSTANT = {"ew:2": 0.5, "ew:inf": 0.05, "sch:inf": 0.5}

PLAIN_LOSS = 0.1  # share of the full-batch margin a plain mini-batch run loses, at least
KEPT = 0.25  # a momentum or VR deficit, as a share of the smallest plain deficit, at most


@functools.cache
def dataset():
    return gen_gaussian(GaussianSpec(k=10, per_class=20, d=5, sigma=0.1, seed=12345))


@functools.cache
def margins(norm: str) -> dict:
    """(regime, b) -> the normalized margin after STEPS steps."""
    ds, spec, c = dataset(), NormSpec.parse(norm), STEP_CONSTANT[norm]
    out = {}
    for regime, (beta1, vr) in REGIMES.items():
        for b in BATCHES:
            if vr and b == ds.n:
                continue
            cfg = OptimizerConfig(batch_size=b, beta1=beta1, vr_on=vr, schedule=Schedule(c=c, a=0.5, eta0=c),
                                  epochs=STEPS * b // ds.n, seed=SEED, norm=spec)
            state = run(cfg, ds, np.zeros((ds.k, ds.d)))
            out[regime, b] = margin_report(state.w, ds, spec).normalized
    return out


def deficits(norm: str) -> dict:
    """(regime, b) -> the full-batch margin minus the run's."""
    got = margins(norm)
    full = got["plain", dataset().n]
    return {key: full - m for key, m in got.items()}


@pytest.mark.parametrize("norm", list(STEP_CONSTANT))
def test_plain_mini_batches_end_below_the_full_batch_margin(norm):
    full, gone = margins(norm)["plain", dataset().n], deficits(norm)
    assert full > 0
    lost = {b: gone["plain", b] / full for b in BATCHES if b < dataset().n}
    assert min(lost.values()) >= PLAIN_LOSS, lost


@pytest.mark.parametrize("norm", list(STEP_CONSTANT))
def test_momentum_and_vr_keep_the_full_batch_margin_at_every_batch_size(norm):
    gone = deficits(norm)
    plain = min(gone["plain", b] for b in BATCHES if b < dataset().n)
    kept = {key: d / plain for key, d in gone.items() if key[0] != "plain"}
    assert len(kept) == 5
    assert max(kept.values()) <= KEPT, kept
