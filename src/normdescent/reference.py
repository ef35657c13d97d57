"""Ground-truth targets: norm-induced max-margin solutions and the
batch-size-one bias matrices.

The max-margin pair (gamma, W*) is computed by Frank-Wolfe on a softmin
smoothing of the minimum pairwise margin over the unit norm ball. The
linear-minimization oracle is the steepest-descent map itself, the step
size is the classic 2/(j+2) with j the steps taken across all stages, and
the smoothing temperature is annealed down a x0.3 ladder with warm starts.
Each iterate's pair gaps are computed once and serve both its exact
normalized margin and the next softmin gradient; the gradient's max shift
reuses the min gap the margin already took, and the gradient is assembled
by ``model``'s pair-sum kernel, the one the loss gradient uses. The loop
calls the validated internals: ``steepest_map`` is the one checked call per
iterate, and the iterate, a convex combination of finite unit-norm maps,
gets its norm from ``linalg._matrix_norm``.
Because every iterate is feasible, the exact margin of the best normalized
iterate is a certified lower bound on gamma; that is what gets reported.

The batch-size-one bias matrix at any norm sums, over the samples, the
norm's steepest map of minus the sample's loss gradient at W = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NormSpec, _matrix_norm, matrix_norm
from .model import Dataset, _pair_sum, grad, margin_report, pair_gaps
from .steepest import steepest_map

_TAU_LADDER_START = 1.0
_TAU_LADDER_FACTOR = 0.3

# the solver's default budget, shared by the margin CLI and the run config
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITERS = 120_000


class MaxMarginNonConvergence(RuntimeError):
    """Iteration budget exhausted with a Frank-Wolfe gap above 10x tol."""

    def __init__(self, gap: float, tol: float, iterations: int):
        super().__init__(
            f"max_margin used {iterations} iterations but the certificate gap "
            f"{gap:.3e} exceeds 10*tol = {10 * tol:.3e}"
        )
        self.gap = gap
        self.tol = tol
        self.iterations = iterations


@dataclass(frozen=True)
class MaxMarginSolution:
    gamma: float
    w_star: np.ndarray
    iterations_used: int
    certificate_gap: float
    separable: bool
    stage_margins: tuple[float, ...]


def _softmin_grad(gaps: np.ndarray, gmin: float, ds: Dataset, tau: float) -> np.ndarray:
    """Gradient of f(W) = -tau log sum exp(-margin_pair / tau), given the pair
    gaps of W and their minimum: sum_(i,c) p_ic (e_(y_i) - e_c) x_i^T, minus
    the pair sum.

    ``gaps / -tau`` has the bytes of ``-gaps / tau``, and rounding is monotone,
    so its max is ``gmin / -tau`` exactly; the shift needs no second pass.
    """
    a = gaps / -tau  # -inf at each target entry, so exp gives it weight 0
    a -= gmin / -tau
    p = np.exp(a, out=a)
    p /= p.sum()
    return -_pair_sum(p, ds.x, ds.full.target)


def max_margin(
    ds: Dataset, spec: NormSpec, tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS
) -> MaxMarginSolution:
    """Norm-induced max-margin pair (gamma, W*) with a Frank-Wolfe certificate.

    ``max_iters`` is the total budget across all temperature stages; each
    stage gets an even share of what remains and exits early when its
    Frank-Wolfe gap falls below 0.05 * tau. Each iterate's pair gaps are
    computed once, for the zero start and after every step, and feed both
    the iterate's exact normalized margin and the next softmin gradient.
    Non-separable data is reported by ``separable=False`` (gamma <= tol)
    when the solver converges; its certificate gap can also stay above
    10 * tol, and then it raises like any other run. ``tol`` and that
    verdict are absolute, in the data's units: separable data with gamma
    1e-300 is reported as not separable.
    Raises MaxMarginNonConvergence only when the budget was exhausted while
    the final certificate gap still exceeds 10 * tol, and ValueError unless
    tol is finite and positive and max_iters >= 1, or when the softmin
    argument 2 * r_bound / tau overflows at the last temperature, which is
    never far above tol: huge data or a tiny tol.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"max_margin tol must be finite and positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_margin max_iters must be at least 1, got {max_iters}")
    taus = []
    tau = _TAU_LADDER_START
    while tau >= tol:
        taus.append(tau)
        tau *= _TAU_LADDER_FACTOR
    if not taus:
        taus = [tol]
    # every iterate lies in the unit ball, so |pair gap| <= 2 r_bound
    if not math.isfinite(2.0 * ds.r_bound / taus[-1]):
        raise ValueError(
            f"softmin argument 2 * r_bound / tau overflows at r_bound = {ds.r_bound:.6g}, "
            f"tau = {taus[-1]:.6g} (tol = {tol!r}); raise tol or rescale the data"
        )

    w = np.zeros((ds.k, ds.d))
    gaps = pair_gaps(w, ds)
    gmin = float(gaps.min())
    used = 0
    best_margin = -math.inf
    best_w = w
    gap = math.inf
    stage_margins = []

    for s, tau in enumerate(taus):
        stage_budget = (max_iters - used) // (len(taus) - s)
        for _ in range(stage_budget):
            g = _softmin_grad(gaps, gmin, ds, tau)
            lmo = steepest_map(g, spec)
            gap = float((g * (lmo - w)).sum())
            if gap <= 0.05 * tau:
                break
            stepsize = 2.0 / (used + 2.0)
            w = (1.0 - stepsize) * w + stepsize * lmo
            used += 1
            gaps = pair_gaps(w, ds)
            gmin = float(gaps.min())
            nw = _matrix_norm(w, spec)
            nm = gmin / nw if nw != 0.0 else -math.inf
            if nm > best_margin:
                best_margin = nm
                best_w = w
        stage_margins.append(best_margin)
        if used >= max_iters:
            break

    if used >= max_iters and gap > 10.0 * tol:
        raise MaxMarginNonConvergence(gap, tol, used)

    norm_best = matrix_norm(best_w, spec)
    if norm_best == 0.0:
        # perfectly symmetric non-separable data never moves the iterate;
        # report a fixed unit-norm direction so the solution invariants hold
        best_w = np.zeros((ds.k, ds.d))
        best_w[0, 0] = 1.0
        norm_best = _matrix_norm(best_w, spec)
    w_star = best_w / norm_best
    gamma = margin_report(w_star, ds, spec).unnormalized_min
    return MaxMarginSolution(
        gamma=float(gamma),
        w_star=w_star,
        iterations_used=used,
        certificate_gap=float(gap),
        separable=bool(gamma > tol),
        stage_margins=tuple(stage_margins),
    )


# --- batch-size-one bias targets -------------------------------------------


def bias_matrix(ds: Dataset, spec: NormSpec) -> np.ndarray:
    """Limit direction of batch-size-one steepest descent under ``spec``
    without momentum: the terms ``canonical_update_matrix(ds, i, spec)``,
    added in sample order.

    At ew:inf this is the SignSGD bias sum_i (2 e_(y_i) - 1) sign(x_i)^T, and
    at ew:2 the Normalized-SGD bias
    sum_i (e_(y_i) - 1/k) / ||e_(y_i) - 1/k||_2 * x_i^T / ||x_i||_2.
    """
    w_bar = np.zeros((ds.k, ds.d))
    for i in range(ds.n):
        w_bar += canonical_update_matrix(ds, i, spec)
    return w_bar


def canonical_update_matrix(ds: Dataset, sample: int, spec: NormSpec) -> np.ndarray:
    """Per-sample term of the bias matrix: the steepest direction of one
    sample's loss at W = 0, ``steepest_map(-grad(0, ds, [sample]), spec)``.

    That gradient is (1/k - e_y) x_i^T. On orthogonal scale-skewed data,
    x_i = alpha e_(y_i), the logits of a class-y sample stay symmetric over
    c != y, so every per-sample step from a zero start moves along this
    term, independent of alpha and of the current weights. A zero sample
    gives a zero term. ``sample`` goes through ``grad``'s batch checks, so
    an index that is negative, not below n, or not an integer raises
    ValueError.
    """
    return steepest_map(-grad(np.zeros((ds.k, ds.d)), ds, [sample]), spec)
