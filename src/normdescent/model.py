"""Multi-class linear classifier: datasets, losses, gradients, margins.

The classifier is logits = W x with W of shape (k, d) and samples stored as
columns of a (d, n) matrix, which a Dataset holds once, as its own read-only
F-ordered copy, so no byte depends on the caller's layout. Cross-entropy
and multi-class exponential loss are supported; both come with full-batch,
mini-batch and per-sample gradients, the softmax-complement proxy used
throughout the convergence analysis, and an exact minimum-margin report.

A gradient is evaluated on a ``Batch``. The full batch (``ds.full``) and
the n one-sample batches (``ds.samples``) are built once per dataset, as
views of ``x`` with no gather; ``gather_batches`` cuts the batches of a
mini-batch epoch from one gather, and at b = 1 returns ``ds.samples`` in
row order. A one-sample cross-entropy batch takes the rank-one kernel
``_sample_grad`` (c x^T, c a k-vector); every other batch takes the (k, m)
kernels ``_offtarget_probs`` / ``_exp_weights`` and ``_pair_sum``. Both
give the same bytes at m = 1.

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
import functools
import itertools
import math
from dataclasses import dataclass, field

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
        raise ValueError(f"loss must be one of {list(LOSS_KINDS)}, got {kind!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Classification data: columns of ``x`` are samples, ``y`` class ids.

    ``Dataset(x, y, k)`` checks its input: every one of the k >= 2 classes
    appears, so every sample has an off-target pair (i, c != y_i), and
    ``r_bound`` = max_i ||x_i||_1, the data-scale constant of every noise and
    stability bound, is derived and finite. It holds read-only copies, ``x``
    F-ordered float64 (a gathered batch's layout, so ``full`` is ``x``
    itself) and ``y`` int64. Equality is identity; pickling and copying
    rebuild through the checks.
    """

    x: np.ndarray
    y: np.ndarray
    k: int
    r_bound: float = field(init=False)

    def __post_init__(self):
        x = as_matrix(self.x)
        if self.k < 2:
            raise ValueError(f"a dataset needs at least two classes, got k = {self.k}")
        if x.shape[0] == 0:
            raise ValueError("a dataset needs at least one feature, got d = 0")
        y = np.asarray(self.y)
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {y.dtype}")
        x, y = np.array(x, order="F"), y.astype(np.int64)
        if y.shape != (x.shape[1],):
            raise ValueError("y must be 1-D with one label per column of x")
        if y.min(initial=0) < 0 or y.max(initial=0) >= self.k:
            raise ValueError("labels must lie in [0, k)")
        present = set(y.tolist())
        if len(present) < self.k:  # O(n), whatever k is: at most 10 absent classes are listed
            count = self.k - len(present)
            first = list(itertools.islice((c for c in range(self.k) if c not in present), 10))
            missing = first if count <= 10 else f"{count} classes, the first ten {first}"
            raise ValueError(f"every class must appear at least once; missing {missing}")
        with np.errstate(over="ignore"):
            r = float(np.abs(x).sum(axis=0).max(initial=0.0))
        if not np.isfinite(r):
            raise ValueError(f"r_bound = max_i ||x_i||_1 is not finite ({r})")
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "r_bound", r)

    def __reduce__(self):
        return Dataset, (self.x, self.y, self.k)

    @functools.cached_property
    def full(self) -> "Batch":
        """Every sample as one batch: ``x`` itself, no gather."""
        idx = np.arange(self.n)
        return Batch(idx, self.x, self.y * self.n + idx)

    @functools.cached_property
    def samples(self) -> tuple["Batch", ...]:
        """Each sample as a one-sample batch, in index order: the column view
        ``x[:, i:i+1]`` with target ``y[i:i+1]``, no gather."""
        idx = np.arange(self.n)
        return tuple(Batch(idx[i : i + 1], self.x[:, i : i + 1], self.y[i : i + 1]) for i in range(self.n))

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


class Batch:
    """Samples of a batch in sorted index order: their indices ``idx``, their
    columns ``x`` (d, m) in the gather layout, and the flat index ``target``
    of each sample's target entry (see the layout note below). ``size`` and
    ``len`` are the sample count m. Equality is identity."""

    __slots__ = ("idx", "x", "target", "size")

    def __init__(self, idx: np.ndarray, x: np.ndarray, target: np.ndarray):
        self.idx = idx
        self.x = x
        self.target = target
        self.size = idx.size

    def __len__(self) -> int:
        return self.size


def gather_batches(ds: Dataset, order: np.ndarray) -> list[Batch]:
    """The rows of the (m, b) index array ``order`` as m Batches, in one pass.

    Batches are index sets: each row is evaluated in sorted order, so the
    result does not depend on shuffle order (a full permuted batch then
    reproduces the full gradient bit for bit). Rows must be nonempty and
    hold distinct integer indices; this checks only their range. With b = 1
    the rows are the dataset's own ``samples``, in row order: no gather.
    """
    if order.min() < 0 or order.max() >= ds.n:
        raise ValueError("batch indices out of range")
    b = order.shape[1]
    if b == 1:
        samples = ds.samples
        return [samples[i] for i in order[:, 0].tolist()]
    rows = np.sort(order, axis=1)
    # (m, b, d) -> (m, d, b): each row's columns with the strides of ds.x[:, row]
    xs = ds.x.T[rows].transpose(0, 2, 1)
    targets = ds.y[rows] * b + np.arange(b)
    return [Batch(idx, x, target) for idx, x, target in zip(rows, xs, targets)]


def _as_batch(ds: Dataset, batch) -> Batch:
    """The Batch of a 1-D array of distinct integer sample indices."""
    idx = np.asarray(batch)
    if idx.ndim != 1:
        raise ValueError(f"batch must be a 1-D array of sample indices, got shape {idx.shape}")
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"batch indices must be integers, got dtype {idx.dtype}")
    (out,) = gather_batches(ds, idx.astype(np.int64)[None, :])
    repeats = out.idx[1:] == out.idx[:-1]
    if repeats.any():
        raise ValueError(f"batch indices must be distinct; {int(out.idx[1:][repeats][0])} repeats")
    return out


# The helpers below take the samples of a batch of m as x (d, m) and
# ``target`` = y * m + arange(m), the flat index of each sample's target
# entry in a C-ordered (k, m) array. They read and write target entries as
# a.ravel()[target]; every array written that way is freshly allocated and
# C-contiguous, because ravel() of any other array returns a copy and the
# write would be lost. Every x they see has the F-ordered layout of ds.x,
# which a gather reproduces, so BLAS sums coeff @ x.T in one order for all.


def _offtarget_probs(w: np.ndarray, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Softmax probabilities with the target entry zeroed, shape (k, m)."""
    z = w @ x
    p = np.exp(z - z.max(axis=0, keepdims=True))
    p /= p.sum(axis=0, keepdims=True)
    p.ravel()[target] = 0.0
    return p


def _gaps(z: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairwise logit gaps z_y - z_c of the logits ``z``, +inf at the target entry."""
    gaps = z.ravel()[target][None, :] - z
    gaps.ravel()[target] = np.inf
    return gaps


def _exp_weights(w: np.ndarray, x: np.ndarray, target: np.ndarray, idx) -> np.ndarray:
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


def _pair_sum(coeff: np.ndarray, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum_i sum_(c != y_i) coeff_ic (e_c - e_(y_i)) x_i^T, shape (k, d); ``coeff``
    (zero at the target entries) gets minus its column sums written there."""
    coeff.ravel()[target] = -coeff.sum(axis=0)  # exact column-sum-zero identity
    return coeff @ x.T


def _sample_grad(w: np.ndarray, batch: Batch) -> np.ndarray:
    """The cross-entropy gradient c x^T of a one-sample batch.

    c is the off-target softmax with minus its sum at the target entry, by
    the operations ``_offtarget_probs`` and ``_pair_sum`` make at m = 1, so
    the bytes are theirs. c enters the matrix product as a column, as in
    ``_pair_sum``: an elementwise ``c * x.T`` would write -0.0 where a
    negative c_i meets a zero feature, and the product writes +0.0.
    """
    x = batch.x
    y = int(batch.target[0])
    z = (w @ x).ravel()
    c = np.exp(z - z.max())
    c /= c.sum()
    c[y] = 0.0
    c[y] = -c.sum()
    return c[:, None] @ x.T


def loss(w, ds: Dataset, kind: str = CROSS_ENTROPY) -> float:
    """Average loss over the full dataset.

    Cross-entropy uses max-subtracted softmax with a log1p path once the
    target logit is maximal, so tiny losses keep full relative precision.
    The exponential loss raises LossOverflowError past exp(700).
    """
    _check_kind(kind)
    wm = as_matrix(w)
    full = ds.full
    if kind == EXPONENTIAL:
        return float(_exp_weights(wm, full.x, full.target, full.idx).sum() / ds.n)
    z = wm @ ds.x
    zy = z.ravel()[full.target]
    zmax = z.max(axis=0)
    rel = np.exp(z - zmax[None, :])
    rel.ravel()[full.target] = 0.0
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
    """Mean loss gradient over ``batch``: ALL for the full dataset, a
    prepared Batch, or a 1-D array of distinct sample indices. A one-sample
    cross-entropy batch takes the rank-one kernel ``_sample_grad``, every
    other the (k, m) kernels."""
    _check_kind(kind)
    wm = as_matrix(w)
    if batch is ALL:
        batch = ds.full
    elif not isinstance(batch, Batch):
        batch = _as_batch(ds, batch)
    if batch.size == 1 and kind == CROSS_ENTROPY:
        return _sample_grad(wm, batch)
    x, target = batch.x, batch.target
    if kind == CROSS_ENTROPY:
        coeff = _offtarget_probs(wm, x, target)
    else:
        coeff = _exp_weights(wm, x, target, batch.idx)
    return _pair_sum(coeff, x, target) / batch.size


def proxy_g(w, ds: Dataset, kind: str = CROSS_ENTROPY) -> float:
    """Gradient-scale proxy: mean off-target softmax mass (CE), or the loss (EXP)."""
    _check_kind(kind)
    wm = as_matrix(w)
    if kind == EXPONENTIAL:
        return loss(wm, ds, kind)
    p = _offtarget_probs(wm, ds.x, ds.full.target)
    return float(p.sum() / ds.n)


def pair_gaps(w: np.ndarray, ds: Dataset) -> np.ndarray:
    """Pairwise logit gaps gaps[c, i] = z_y - z_c of z = W x_i, with +inf
    on the target row (c = y_i), shape (k, n)."""
    return _gaps(w @ ds.x, ds.full.target)


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


def _parsed(convert, parts: list[str]) -> list:
    """``convert`` of each token of a data file, metric CSV cell or numeric CLI flag, rejecting what int()
    and float() accept but repr() never writes: ``_``, non-ASCII digits and whitespace (never in a data file's)."""
    for t in parts:
        if "_" in t:
            raise ValueError(f"digit separator '_' in {t!r}")
        if not t.isascii():
            raise ValueError(f"non-ASCII character in {t!r}")
        if t != "".join(t.split()):
            raise ValueError(f"whitespace in {t!r}")
    return [convert(t) for t in parts]


def _sizes(parts: list[str]) -> list[int]:
    vals = _parsed(int, parts)
    for t, v in zip(parts, vals):
        if v < 0:
            raise ValueError(f"negative size {t!r}")
    return vals


def _finites(parts: list[str]) -> list[float]:
    vals = _parsed(float, parts)
    for t, v in zip(parts, vals):
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {t!r}")
    return vals


def _label(token: str, k: int) -> int:
    (y,) = _parsed(int, [token])
    if not 0 <= y < k:
        raise ValueError(f"label {token!r} does not lie in [0, k) = [0, {k})")
    return y


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
        d, n, k = _fields(fh, "header 'd n k'", 3, _sizes)
        # the arrays are built from the lines read, never sized by the header
        lines = [_fields(fh, f"sample line {i}", d + 1, lambda p: (_label(p[0], k), _finites(p[1:]))) for i in range(n)]
        _no_trailing(fh)
        x = np.array([vals for _, vals in lines], dtype=np.float64).reshape(n, d).T
        return Dataset(x, np.array([label for label, _ in lines], dtype=np.int64), k)


def save_matrix(w, path):
    wm = as_matrix(w)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{wm.shape[0]} {wm.shape[1]}\n")
        for row in wm:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with _labelled(path), open(path, "r", encoding="ascii") as fh:
        rows, cols = _fields(fh, "header 'rows cols'", 2, _sizes)
        lines = [_fields(fh, f"row {r}", cols, _finites) for r in range(rows)]
        _no_trailing(fh)
    return np.array(lines, dtype=np.float64).reshape(rows, cols)
