"""Dense matrix norms, SVD, and polar factors.

A norm is a ``NormSpec``, written ``ew:p`` (entry-wise) or ``sch:p``
(Schatten) everywhere; ``matrix_norm`` and ``dual_norm`` take one.

Everything in this module is a pure function of float64 numpy arrays. The
SVD is LAPACK's thin SVD (``np.linalg.svd``), returned as LAPACK gives it, so
the same input gives the same bytes given the same numpy version, BLAS/LAPACK
build and thread count; the reproducibility contract of the experiment
harness rests on exactly that. ``jacobi_svd`` is the package's one SVD: the
Schatten norms read its singular values and the Schatten steepest map its
factors. The factors' signs are LAPACK's; nothing depends on them, since
the norms use only the singular values and the map sums terms u_j v_j^T,
which a paired sign flip leaves unchanged.

Inputs are validated once, at the public boundary: each public function
passes its argument through ``as_matrix`` (2-D, float64, finite), and the
underscored internals trust their caller to have done so. The finite check
counts the finite entries, ``np.count_nonzero(np.isfinite(m)) == m.size``,
which tests the same thing as ``np.isfinite(m).all()`` at about half the
cost on the small matrices of the training loop. ``matrix_norm``
validates once and dispatches to ``_matrix_norm``, which the Frank-Wolfe
loop calls directly on its iterates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ENTRYWISE = "ew"
SCHATTEN = "sch"

# Singular values below RANK_CUTOFF * sigma_max count as zero for rank
# decisions (rank-1 per-sample gradients need a stable cut).
RANK_CUTOFF = 1e-12

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


@dataclass(frozen=True)
class NormSpec:
    """A matrix norm: entry-wise (``"ew"``) or Schatten (``"sch"``), with
    exponent p in [1, inf].

    The textual form used in configs, on the command line and in outputs is
    ``"ew:p"`` / ``"sch:p"`` with ``p`` a finite decimal or ``"inf"``, spelled
    as ``str`` prints it.
    """

    family: str
    p: float

    def __post_init__(self):
        if self.family not in (ENTRYWISE, SCHATTEN):
            raise ValueError(f"unknown norm family: {self.family!r}")
        if not (self.p >= 1.0):
            raise ValueError(f"norm exponent must satisfy p >= 1, got {self.p}")

    @property
    def q(self) -> float:
        """Dual exponent: 1/p + 1/q = 1 (1 <-> inf)."""
        if self.p == 1.0:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    @functools.cached_property
    def dual(self) -> "NormSpec":
        return NormSpec(self.family, self.q)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """The spec that ``str`` prints as ``text``; any other spelling of it
        (``ew:2.0``, ``ew:+2``, ``ew:1_0``, spaces) is rejected."""
        bad = ValueError(f"bad norm spec {text!r}; expected 'ew:p' or 'sch:p'")
        try:
            family, pstr = text.split(":")
            p = float(pstr)
        except ValueError:
            raise bad from None
        if family not in (ENTRYWISE, SCHATTEN) or (not math.isfinite(p) and pstr != "inf"):
            raise bad  # only the literal "inf" means p = inf, not 1e400
        spec = cls(family, p)
        if str(spec) != text:
            raise bad
        return spec

    def __str__(self) -> str:
        pstr = "inf" if math.isinf(self.p) else repr(self.p).removesuffix(".0")
        return f"{self.family}:{pstr}"


class NonFiniteError(ValueError, FloatingPointError):
    """A matrix with a NaN or infinite entry.

    A ValueError for callers that pass such a matrix in; also a
    FloatingPointError, so a training loop whose own arithmetic produced it
    reports a numeric failure.
    """


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise NonFiniteError("matrix has non-finite entries")
    return m


@np.errstate(over="ignore")  # an overflow to inf is handled by the caller
def _sum_of_squares(m: np.ndarray) -> float:
    return float((m * m).sum())


def _entrywise_norm(m: np.ndarray, p: float) -> float:
    """(sum |m_ij|^p)^(1/p) of a validated matrix; max |m_ij| at p = inf."""
    if p == 2.0:
        sq = _sum_of_squares(m)
        # the unscaled shortcut is accurate unless the sum of squares drops
        # below the normal range or overflows
        if _TINY <= sq < math.inf:
            return math.sqrt(sq)
    absm = np.abs(m)
    if math.isinf(p):
        return float(absm.max(initial=0.0))
    if p == 1.0:
        return float(absm.sum())
    top = float(absm.max(initial=0.0))
    if top == 0.0:
        return 0.0
    # scale by the max entry so large p does not overflow
    return top * float(np.sum((absm / top) ** p)) ** (1.0 / p)


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(U, S, Vh)`` with A = U diag(S) Vh, exactly as LAPACK returns it.

    ``np.linalg.svd(a, full_matrices=False)`` on the validated matrix: S is
    nonincreasing and U, Vh^T have min(rows, cols) orthonormal columns. Raises
    ``np.linalg.LinAlgError`` when LAPACK does not converge. Callers unpack the
    result as a tuple (numpy < 2.0 returns a plain one). The name is
    historical; it stays only because the perfbench tracer's ``WRAP`` table
    and the binding tests name it.
    """
    return np.linalg.svd(as_matrix(a), full_matrices=False)


def matrix_norm(a, spec: NormSpec) -> float:
    """Norm of ``a`` under ``spec``; ``a`` is validated once, here."""
    return _matrix_norm(as_matrix(a), spec)


def _matrix_norm(m: np.ndarray, spec: NormSpec) -> float:
    """``matrix_norm`` of a validated matrix."""
    if spec.family == ENTRYWISE or spec.p == 2.0:  # Schatten-2 is Frobenius: skip the SVD
        return _entrywise_norm(m, spec.p)
    # the p-norm of the singular values; jacobi_svd is looked up here at call time
    _, s, _ = jacobi_svd(m)
    return _entrywise_norm(s[None, :], spec.p)


def dual_norm(a, spec: NormSpec) -> float:
    """Dual norm within the same family: exponent p maps to q = p/(p-1)."""
    return matrix_norm(a, spec.dual)


def newton_schulz_polar(a, iters: int = 40, tol: float = 1e-8) -> np.ndarray:
    """Polar factor U V^T via the cubic Newton-Schulz iteration.

    Pre-scales by the Frobenius norm so all singular values start in (0, 1],
    then iterates X <- 1.5 X - 0.5 X X^T X. Stops early once
    ||X X^T X - X||_F <= 0.75*tol, which pins every nonzero singular value of
    X into [1-tol, 1+tol] while ignoring exact null directions.
    """
    m = as_matrix(a)
    fro = _entrywise_norm(m, 2.0)
    if fro == 0.0:
        raise ValueError("newton_schulz_polar requires a nonzero matrix")
    x = m / fro
    for _ in range(iters):
        xxt_x = (x @ x.T) @ x
        if float(np.sqrt(np.sum((xxt_x - x) ** 2))) <= 0.75 * tol:
            return x
        x = 1.5 * x - 0.5 * xxt_x
    return x


def frobenius_cosine(a, b) -> float:
    """<a, b> / (||a||_F ||b||_F); both inputs must be nonzero.

    When <a, b> overflows or ||a||_F ||b||_F leaves the normal range, both
    are first rescaled by powers of two, so huge, tiny and subnormal inputs
    keep full precision.
    """
    ma = as_matrix(a)
    mb = as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    na = _entrywise_norm(ma, 2.0)
    nb = _entrywise_norm(mb, 2.0)
    if na == 0.0 or nb == 0.0:
        raise ValueError("frobenius_cosine requires nonzero matrices")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf: nan
        dot = float(np.sum(ma * mb))
    if not (math.isfinite(dot) and _TINY <= na * nb < math.inf):
        # scale each by the power of two that puts its largest |entry| in
        # [0.5, 1), which is exact for every entry left in the normal range
        ma, mb = (np.ldexp(m, -math.frexp(float(np.abs(m).max()))[1]) for m in (ma, mb))
        dot, na, nb = float(np.sum(ma * mb)), _entrywise_norm(ma, 2.0), _entrywise_norm(mb, 2.0)
    return min(1.0, max(-1.0, dot / (na * nb)))
