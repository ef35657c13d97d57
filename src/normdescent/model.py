"""Multi-class linear classifier: datasets, losses, gradients, margins.

The classifier is logits = W x with W of shape (k, d) and samples stored as
columns of a (d, n) matrix. Cross-entropy and multi-class exponential loss
are supported; both come with full-batch, mini-batch and per-sample
gradients, the softmax-complement proxy used throughout the convergence
analysis, and an exact minimum-margin report.

Numerical conventions that matter here:

* softmax is computed with column-max subtraction;
* the target-class entry of every per-sample gradient vector is formed as
  minus the sum of the off-target probabilities rather than ``p_y - 1``.
  At large margins ``p_y`` rounds to 1.0 and the naive difference loses the
  target component entirely, which visibly corrupts normalized per-sample
  update directions late in training;
* the proxy averages the off-target probability mass directly, for the
  same reason.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .linalg import NormSpec, as_matrix, matrix_norm

CROSS_ENTROPY = "cross_entropy"
EXPONENTIAL = "exponential"
LOSS_KINDS = (CROSS_ENTROPY, EXPONENTIAL)

#: Sentinel for "use every sample" in gradient/loss batch arguments.
ALL = None

# exp() arguments beyond this are treated as divergence of the EXP loss
_EXP_GUARD = 700.0


class LossOverflowError(ArithmeticError):
    """Exponential-loss overflow; remembers which sample diverged."""

    def __init__(self, sample: int, argument: float):
        super().__init__(
            f"exponential loss overflow at sample {sample}: exp argument {argument:.1f} > {_EXP_GUARD:g}"
        )
        self.sample = sample


def _check_kind(kind: str):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


@dataclass(frozen=True)
class Dataset:
    """Classification data: columns of ``x`` are samples, ``y`` class ids.

    Each of the k >= 2 classes appears, so every sample has an off-target
    pair (i, c != y_i). ``r_bound`` caches max_i ||x_i||_1, the data-scale
    constant appearing in every noise and stability bound.
    """

    x: np.ndarray
    y: np.ndarray
    k: int
    r_bound: float

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @staticmethod
    def from_arrays(x, y, k: int) -> "Dataset":
        xm = as_matrix(x)
        ya = np.asarray(y, dtype=np.int64)
        if ya.ndim != 1 or ya.shape[0] != xm.shape[1]:
            raise ValueError("y must be 1-D with one label per column of x")
        if k < 2:
            raise ValueError(f"a dataset needs at least two classes, got k = {k}")
        if ya.min(initial=0) < 0 or (ya.size and ya.max() >= k):
            raise ValueError("labels must lie in [0, k)")
        present = np.unique(ya)
        if present.size != k:
            missing = sorted(set(range(k)) - set(present.tolist()))
            raise ValueError(f"every class must appear at least once; missing {missing}")
        with np.errstate(over="ignore"):
            r = float(np.abs(xm).sum(axis=0).max())
        if not np.isfinite(r):
            raise ValueError(f"r_bound = max_i ||x_i||_1 is not finite ({r})")
        return Dataset(x=xm, y=ya, k=k, r_bound=r)


def _as_batch(ds: Dataset, batch) -> np.ndarray:
    if batch is ALL:
        return np.arange(ds.n)
    # batches are index sets: evaluate in sorted order so the result does
    # not depend on shuffle order (a full permuted batch then reproduces
    # the full gradient bit for bit)
    idx = np.sort(np.asarray(batch, dtype=np.int64))
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    if idx[0] < 0 or idx[-1] >= ds.n:
        raise ValueError("batch indices out of range")
    return idx


# The helpers below take the samples as gathered columns x = ds.x[:, idx]
# (shape (d, m); the gather fixes the memory layout, and with it the bytes of
# W @ x) and target = (ds.y[idx], arange(m)), which indexes each sample's
# target entry of a (k, m) array.


def _offtarget_probs(w: np.ndarray, x: np.ndarray, target) -> np.ndarray:
    """Softmax probabilities with the target entry zeroed, shape (k, m)."""
    z = w @ x
    p = np.exp(z - z.max(axis=0, keepdims=True))
    p /= p.sum(axis=0, keepdims=True)
    p[target] = 0.0
    return p


def _gaps(z: np.ndarray, target) -> np.ndarray:
    """Pairwise logit gaps z_y - z_c of the logits ``z``, +inf at the target entry."""
    gaps = z[target][None, :] - z
    gaps[target] = np.inf
    return gaps


def _exp_weights(w: np.ndarray, x: np.ndarray, target, idx: np.ndarray) -> np.ndarray:
    """exp(z_c - z_y) = exp(-gap) for c != y (zero at the target entry),
    shape (k, m); raises for the lowest-index sample whose exp argument
    exceeds the guard, named through ``idx``. Negation is exact, so this is
    bit for bit the exp of the direct difference."""
    gaps = _gaps(w @ x, target)
    over = gaps < -_EXP_GUARD
    if over.any():
        col = int(np.nonzero(over.any(axis=0))[0][0])
        raise LossOverflowError(int(idx[col]), float(-gaps[:, col].min()))
    return np.exp(-gaps)


def _pair_sum(coeff: np.ndarray, x: np.ndarray, target) -> np.ndarray:
    """sum_i sum_(c != y_i) coeff_ic (e_c - e_(y_i)) x_i^T, shape (k, d); ``coeff``
    (zero at the target entries) gets minus its column sums written there."""
    coeff[target] = -coeff.sum(axis=0)  # exact column-sum-zero identity
    return coeff @ x.T


def loss(w, ds: Dataset, kind: str = CROSS_ENTROPY) -> float:
    """Average loss over the full dataset.

    Cross-entropy uses max-subtracted softmax with a log1p path once the
    target logit is maximal, so tiny losses keep full relative precision.
    The exponential loss raises LossOverflowError past exp(700).
    """
    _check_kind(kind)
    wm = as_matrix(w)
    cols = np.arange(ds.n)
    if kind == EXPONENTIAL:
        return float(_exp_weights(wm, ds.x[:, cols], (ds.y, cols), cols).sum() / ds.n)
    z = wm @ ds.x
    zy = z[ds.y, cols]
    zmax = z.max(axis=0)
    rel = np.exp(z - zmax[None, :])
    rel[ds.y, cols] = 0.0
    off = rel.sum(axis=0)
    # -log softmax_y = (zmax - z_y) + log(exp(z_y - zmax) + off)
    at_top = zy == zmax
    per = np.where(
        at_top,
        np.log1p(off),
        (zmax - zy) + np.log(np.exp(zy - zmax) + off),
    )
    return float(per.mean())


def grad(w, ds: Dataset, batch=ALL, kind: str = CROSS_ENTROPY) -> np.ndarray:
    """Mean loss gradient over ``batch`` (ALL for the full dataset)."""
    _check_kind(kind)
    wm = as_matrix(w)
    idx = _as_batch(ds, batch)
    x = ds.x[:, idx]
    target = (ds.y[idx], np.arange(idx.size))
    if kind == CROSS_ENTROPY:
        coeff = _offtarget_probs(wm, x, target)
    else:
        coeff = _exp_weights(wm, x, target, idx)
    return _pair_sum(coeff, x, target) / idx.size


def proxy_g(w, ds: Dataset, kind: str = CROSS_ENTROPY) -> float:
    """Gradient-scale proxy: mean off-target softmax mass (CE), or the loss (EXP)."""
    _check_kind(kind)
    wm = as_matrix(w)
    if kind == EXPONENTIAL:
        return loss(wm, ds, kind)
    cols = np.arange(ds.n)
    p = _offtarget_probs(wm, ds.x[:, cols], (ds.y, cols))
    return float(p.sum() / ds.n)


def pair_gaps(w: np.ndarray, ds: Dataset) -> np.ndarray:
    """Pairwise logit gaps gaps[c, i] = z_y - z_c of z = W x_i, with +inf
    on the target row (c = y_i), shape (k, n)."""
    return _gaps(w @ ds.x, (ds.y, np.arange(ds.n)))


@dataclass(frozen=True)
class MarginReport:
    """Exact minimum pairwise logit gap and its norm-scaled version."""

    unnormalized_min: float
    weight_norm: float
    normalized: float


def margin_report(w, ds: Dataset, spec: NormSpec) -> MarginReport:
    """Minimum of (e_y - e_c)^T W x_i over all i and c != y_i.

    When ``w`` is zero the normalized margin is reported as -inf.
    """
    wm = as_matrix(w)
    unnorm = float(pair_gaps(wm, ds).min())
    wnorm = matrix_norm(wm, spec)
    normalized = unnorm / wnorm if wnorm > 0.0 else -np.inf
    return MarginReport(unnormalized_min=unnorm, weight_norm=wnorm, normalized=normalized)


# --- text serialization ----------------------------------------------------
#
# Dataset files: first line "d n k", then n lines "label v1 ... vd".
# Matrix files: first line "rows cols", then one line per row.
# Values are written with repr(), which round-trips float64 exactly.
# Loaders reject a line with the wrong field count, a token that does not
# parse, a non-finite value, and anything but blank lines after the last
# expected line. Each error names the file, and the line where it has one.


def _fmt(v: float) -> str:
    return repr(float(v))


def save_dataset(ds: Dataset, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{ds.d} {ds.n} {ds.k}\n")
        for i in range(ds.n):
            vals = " ".join(_fmt(v) for v in ds.x[:, i])
            fh.write(f"{int(ds.y[i])} {vals}\n")


@contextlib.contextmanager
def _labelled(label):
    """Re-raise a ValueError with ``label: `` in front of its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _ints(parts: list[str]) -> list[int]:
    return [int(t) for t in parts]


def _finites(parts: list[str]) -> list[float]:
    vals = [float(t) for t in parts]
    for t, v in zip(parts, vals):
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {t!r}")
    return vals


def _fields(fh, what: str, count: int, parse):
    """``parse`` of the next line's ``count`` fields; its errors name the line ``what``."""
    parts = fh.readline().split()
    if len(parts) != count:
        raise ValueError(f"{what} has {len(parts)} fields, expected {count}")
    with _labelled(what):
        return parse(parts)


def _no_trailing(fh):
    if fh.read().strip():
        raise ValueError("unexpected content after the last expected line")


def load_dataset(path) -> Dataset:
    with _labelled(path), open(path, "r", encoding="ascii") as fh:
        d, n, k = _fields(fh, "header 'd n k'", 3, _ints)
        x = np.zeros((d, n))
        y = np.zeros(n, dtype=np.int64)
        for i in range(n):
            y[i], x[:, i] = _fields(fh, f"sample line {i}", d + 1, lambda p: (int(p[0]), _finites(p[1:])))
        _no_trailing(fh)
        return Dataset.from_arrays(x, y, k)


def save_matrix(w, path):
    wm = as_matrix(w)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{wm.shape[0]} {wm.shape[1]}\n")
        for row in wm:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with _labelled(path), open(path, "r", encoding="ascii") as fh:
        rows, cols = _fields(fh, "header 'rows cols'", 2, _ints)
        out = np.zeros((rows, cols))
        for r in range(rows):
            out[r] = _fields(fh, f"row {r}", cols, _finites)
        _no_trailing(fh)
    return out
