"""Steepest-descent directions under entry-wise and Schatten norms.

``steepest_map(g, spec)`` returns the unit-norm matrix maximizing the trace
inner product with ``g`` over the unit ball of ``spec``:

* entry-wise p in (1, inf): sign(g) |g|^(q-1) / ||g||_q^(q-1), q = p/(p-1)
* entry-wise inf:           sign(g)            (SignSGD; sign(0) = 0)
* entry-wise 1:             +/-1 on the first maximal-|entry| position
* Schatten p in (1, inf):   U diag(s^(q-1)/||s||_q^(q-1)) V^T
* Schatten inf:             U V^T over nonzero singular values (Muon family)
* Schatten 1:               leading singular dyad u1 v1^T

The inner product attained equals the dual norm of ``g`` in every case.
Maximizers are not unique at p in {1, inf}; the tie-breaks above fix one
deterministic representative. ``steepest_map(0) = 0`` so that a caller can
treat an exactly stationary signal as a no-op.

``steepest_map`` validates ``g`` once; the per-family helpers work on that
validated matrix and call the unchecked ``linalg`` internals, except the
SVD: ``jacobi_svd`` checks its matrix again. The Schatten maps take LAPACK's
factors with whatever signs LAPACK picks: every term u_j v_j^T is unchanged
when u_j and v_j both flip sign, and negation is exact, so the result has
the same bytes either way.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    ENTRYWISE,
    RANK_CUTOFF,
    NormSpec,
    _entrywise_norm,
    as_matrix,
    jacobi_svd,
)

__all__ = ["NormSpec", "steepest_map"]


def _entrywise_map(g: np.ndarray, spec: NormSpec) -> np.ndarray:
    if math.isinf(spec.p):
        return np.sign(g)
    if spec.p == 1.0:
        flat = int(np.argmax(np.abs(g)))  # row-major first maximum
        out = np.zeros_like(g)
        out.flat[flat] = math.copysign(1.0, g.flat[flat])
        return out
    dual = _entrywise_norm(g, spec.q)
    if spec.q == 2.0:
        # the bytes of the general form at q - 1 = 1: adding +0.0 turns -0.0
        # into the +0.0 of sign(-0.0) = 0, and a tiny negative entry that the
        # division underflows still gives -0.0, as the sign form does
        return (g + 0.0) / dual
    return np.sign(g) * (np.abs(g) / dual) ** (spec.q - 1.0)


def _schatten_map(g: np.ndarray, spec: NormSpec) -> np.ndarray:
    u, s, vt = jacobi_svd(g)  # looked up here at call time, so the tracer sees it
    if spec.p == 1.0:
        return np.outer(u[:, 0], vt[0])
    rank = int(np.count_nonzero(s > RANK_CUTOFF * s[0]))
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    if math.isinf(spec.p):
        return u @ vt
    w = (s / float(s[0])) ** (spec.q - 1.0)
    w /= float(np.sum(w ** spec.p)) ** (1.0 / spec.p)  # unit Schatten-p norm directly
    return (u * w) @ vt


def steepest_map(g, spec: NormSpec) -> np.ndarray:
    """Unit-norm direction maximizing <g, .> over the unit ball of ``spec``.

    Returns the zero matrix when ``g`` is zero.
    """
    m = as_matrix(g)
    if not np.count_nonzero(m):
        return np.zeros_like(m)
    if spec.family == ENTRYWISE:
        return _entrywise_map(m, spec)
    return _schatten_map(m, spec)
