"""Dense matrix norms, SVD, and polar factors.

Everything in this module is a pure function of float64 numpy arrays. The
SVD is LAPACK's (``np.linalg.svd``), so the same input gives the same bytes
given the same numpy version, BLAS/LAPACK build and thread count; the
reproducibility contract of the experiment harness rests on exactly that.
``jacobi_svd`` also fixes the factors' signs, but no training or solver
output reads them: the Schatten norms use only the singular values, and the
Schatten steepest map sums terms u_j v_j^T, which a paired sign flip leaves
unchanged.

Inputs are validated once, at the public boundary: each public function
passes its argument through ``as_matrix`` (2-D, float64, finite), and the
underscored internals trust their caller to have done so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ENTRYWISE = "entrywise"
SCHATTEN = "schatten"

_FAMILY_ALIASES = {"ew": ENTRYWISE, "sch": SCHATTEN}
_FAMILY_SHORT = {ENTRYWISE: "ew", SCHATTEN: "sch"}

# Singular values below RANK_CUTOFF * sigma_max count as zero for rank
# decisions (rank-1 per-sample gradients need a stable cut).
RANK_CUTOFF = 1e-12

_TINY = np.finfo(np.float64).tiny  # smallest normal float64


@dataclass(frozen=True)
class NormSpec:
    """A matrix norm: entry-wise or Schatten, with exponent p in [1, inf].

    The textual form used in configs and on the command line is
    ``"ew:p"`` / ``"sch:p"`` with ``p`` a decimal or ``"inf"``.
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

    @property
    def dual(self) -> "NormSpec":
        return NormSpec(self.family, self.q)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        try:
            fam, pstr = text.strip().split(":")
            family = _FAMILY_ALIASES[fam]
            p = math.inf if pstr == "inf" else float(pstr)
        except (ValueError, KeyError):
            raise ValueError(f"bad norm spec {text!r}; expected 'ew:p' or 'sch:p'")
        return cls(family, p)

    def __str__(self) -> str:
        pstr = "inf" if math.isinf(self.p) else f"{self.p:g}"
        return f"{_FAMILY_SHORT[self.family]}:{pstr}"


@dataclass(frozen=True)
class Svd:
    """Thin SVD A = U diag(sigma) V^T with r = min(rows, cols) columns.

    sigma is nonincreasing, U and V have orthonormal columns (also for zero
    singular values), and the largest-magnitude entry of each U column is
    nonnegative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


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
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix has non-finite entries")
    return m


def entrywise_norm(a, p: float) -> float:
    """Entry-wise p-norm: (sum |a_ij|^p)^(1/p); p=inf gives max |a_ij|."""
    m = as_matrix(a)
    if not (p >= 1.0):
        raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
    return _entrywise_norm(m, p)


def _entrywise_norm(m: np.ndarray, p: float) -> float:
    """``entrywise_norm`` of a validated matrix and exponent."""
    if p == 2.0:
        sq = float(np.sum(m * m))
        # the unscaled shortcut is accurate unless the sum of squares drops
        # below the normal range or overflows (numpy warns about the latter)
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


def jacobi_svd(a) -> Svd:
    """Thin SVD through LAPACK (``np.linalg.svd``) with a fixed sign convention.

    Each (u_j, v_j) pair is signed so that the largest-magnitude entry of
    u_j is nonnegative (the first such entry on ties), which removes the sign
    freedom of the factorisation. Raises ``np.linalg.LinAlgError`` when
    LAPACK does not converge. The name is kept as public API.
    """
    u, sigma, vt = np.linalg.svd(as_matrix(a), full_matrices=False)
    if u.size:  # a zero-size matrix has no entry to sign by
        lead = np.argmax(np.abs(u), axis=0)
        sign = np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
        u, vt = u * sign, vt * sign[:, None]
    return Svd(u=u, sigma=sigma, v=np.ascontiguousarray(vt.T))


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm: p-norm of the singular value vector."""
    if p == 2.0:
        # Frobenius identity; skip the SVD
        return entrywise_norm(a, 2.0)
    return entrywise_norm(jacobi_svd(a).sigma[None, :], p)


def matrix_norm(a, spec: NormSpec) -> float:
    if spec.family == ENTRYWISE:
        return entrywise_norm(a, spec.p)
    return schatten_norm(a, spec.p)


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
    """<a, b> / (||a||_F ||b||_F); both inputs must be nonzero."""
    ma = as_matrix(a)
    mb = as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    na = _entrywise_norm(ma, 2.0)
    nb = _entrywise_norm(mb, 2.0)
    if na == 0.0 or nb == 0.0:
        raise ValueError("frobenius_cosine requires nonzero matrices")
    c = float(np.sum(ma * mb)) / (na * nb)
    return min(1.0, max(-1.0, c))
