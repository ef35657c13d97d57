"""Exact symmetries of the geometry, checked without recorded values.

Byte pins say that nothing moved, not that the numbers are right. In exact
arithmetic the problem has symmetries that hold whatever the solver or the
training loop records:

* relabelling the classes by a permutation permutes the rows of W, at every
  norm;
* a signed permutation P of the features (x -> P x) maps W to W P^T, at
  every entry-wise and Schatten norm;
* an orthogonal embedding x -> Q x (Q in R^{D x d}, Q^T Q = I) maps W to
  W Q^T, at ew:2 and every Schatten norm. The logits W Q^T Q x equal W x,
  the gradient becomes G Q^T, and the SVD of G Q^T is U S (Q V)^T, so the
  Schatten maps go through the transform too.

Floating point breaks each symmetry only by rounding, so a transformed run
must match the transformed original to a relative 1e-12, and so must the
batch-size-one bias matrix. A run's rounding differences can grow from step
to step, so the runs are short and use separable data (d >= n, so the
columns are independent), the paper's setting. On inseparable data a
normalized step oscillates about the loss minimizer, and one such run grew
a 1e-16 difference to 1e-9 within 60 steps. On these instances the largest
relative difference was 8.5e-15 after 12 steps (9000 draws) and 3.3e-11
after 60 (6000 draws). The reference solver's iterates can part ways at a
near tie, so its gamma is compared within its own certificate gap.

ew:1 and sch:1 break ties by the first maximum. Every instance has k >= 3
classes of Gaussian data, which keeps the bias matrix's maps off ties (at
k = 2 the two rows of a cross-entropy gradient are exact negatives, a tie at
ew:1). Training at ew:1 and sch:1 drives the largest entries or singular
values of the gradient towards each other, so a run reaches near ties by
itself and is not compared; at p = 1 only the bias matrix and gamma are.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from normdescent import Dataset, NormSpec, OptimizerConfig, Schedule, bias_matrix, max_margin, run

ENTRYWISE = ("ew:1", "ew:1.5", "ew:2", "ew:3", "ew:inf")
SCHATTEN = ("sch:1", "sch:1.5", "sch:2", "sch:3", "sch:inf")
REL = 1e-12


def relabel(ds, rng):
    """Class c becomes class perm[c]; row c of W moves to row perm[c]."""
    perm = rng.permutation(ds.k)

    def move(w):
        out = np.empty_like(w)
        out[perm] = w
        return out

    return Dataset(ds.x, perm[ds.y], ds.k), move


def signed_permutation(ds, rng):
    p = np.eye(ds.d)[rng.permutation(ds.d)] * rng.choice([-1.0, 1.0], size=ds.d)[:, None]
    return Dataset(p @ ds.x, ds.y, ds.k), lambda w: w @ p.T


def orthogonal_embedding(ds, rng):
    q, _ = np.linalg.qr(rng.standard_normal((ds.d + 2, ds.d)))  # (D, d), Q^T Q = I
    return Dataset(q @ ds.x, ds.y, ds.k), lambda w: w @ q.T


# (transform, norm) for every norm the transform is a symmetry of
CASES = [
    *((relabel, norm) for norm in ENTRYWISE + SCHATTEN),
    *((signed_permutation, norm) for norm in ENTRYWISE + SCHATTEN),
    *((orthogonal_embedding, norm) for norm in ("ew:2",) + SCHATTEN),
]
CASE = st.sampled_from(CASES).map(lambda case: (case[0], NormSpec.parse(case[1])))
RUN_CASE = CASE.filter(lambda case: case[1].p != 1.0)
SEED = st.integers(0, 2**32 - 1)


def instance(rng, d, n):
    """Gaussian data with k in {3, 4} classes, every class present; separable
    when d >= n."""
    k = int(rng.integers(3, 5))
    y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(y)
    return Dataset(rng.standard_normal((d, n)), y, k)


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= REL * np.linalg.norm(want), np.abs(got - want).max()


# regime -> (batch size of n = 4 samples, beta1, vr_on, epochs), 12 steps each
REGIMES = {
    "plain": (4, 0.0, False, 12),
    "momentum": (2, 0.9, False, 6),
    "vr": (2, 0.0, True, 6),
}


@settings(max_examples=40, deadline=None)
@given(seed=SEED, case=RUN_CASE, regime=st.sampled_from(sorted(REGIMES)))
def test_training_follows_the_transform(seed, case, regime):
    transform, spec = case
    rng = np.random.default_rng(seed)
    ds = instance(rng, d=int(rng.integers(4, 6)), n=4)
    moved, move = transform(ds, rng)
    b, beta1, vr, epochs = REGIMES[regime]
    cfg = OptimizerConfig(batch_size=b, beta1=beta1, vr_on=vr, schedule=Schedule(0.5, 0.5, 0.5),
                          epochs=epochs, seed=seed % 1000, norm=spec)
    w = run(cfg, ds, np.zeros((ds.k, ds.d))).w
    assert np.count_nonzero(w)
    assert_close(run(cfg, moved, np.zeros((moved.k, moved.d))).w, move(w))


@settings(max_examples=40, deadline=None)
@given(seed=SEED, case=CASE)
def test_bias_matrix_follows_the_transform(seed, case):
    transform, spec = case
    rng = np.random.default_rng(seed)
    ds = instance(rng, d=int(rng.integers(2, 5)), n=int(rng.integers(4, 9)))
    moved, move = transform(ds, rng)
    assert_close(bias_matrix(moved, spec), move(bias_matrix(ds, spec)))


@settings(max_examples=15, deadline=None)
@given(seed=SEED, case=CASE)
def test_max_margin_gamma_is_invariant(seed, case):
    # d = n: the columns are independent, so any labelling is separable
    transform, spec = case
    rng = np.random.default_rng(seed)
    ds = instance(rng, d=4, n=4)
    moved, _ = transform(ds, rng)
    a, b = (max_margin(data, spec, tol=3e-2) for data in (ds, moved))
    assert abs(a.gamma - b.gamma) <= max(a.certificate_gap, b.certificate_gap)

