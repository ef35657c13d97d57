"""Stochastic steepest descent with random reshuffling, momentum, and
SVRG-style variance reduction.

One training step builds a gradient signal G_t according to two switches,
feeds it through an optional EMA momentum buffer, maps the result to a
unit-norm direction under the configured matrix norm, and takes the step
W <- W - eta_t * direction:

    vr off:  G_t = grad over the current mini-batch
    vr on:   G_t = grad_B(W_t) - grad_B(W_snapshot) + full_grad(W_snapshot)
    beta1 = 0:  H_t = G_t (no momentum)
    beta1 > 0:  H_t = beta1 * H_{t-1} + (1 - beta1) * G_t

Epochs reshuffle the dataset into m = n/b disjoint mini-batches; with vr on,
the snapshot weights and their full gradient are refreshed at the start of
every epoch (including epoch 0). A mini-batch epoch gathers its m batches
once, before its first step: ``model.gather_batches`` sorts each row of the
reshuffled (m, b) permutation, checks the range once, and takes every
batch's columns and target index from one gather, so a step (and VR's two
batch gradients) reuses its prepared Batch. At b = 1 nothing is gathered:
the batches are the dataset's own one-sample Batches (``ds.samples``, built
once per dataset) in permutation order, and every cross-entropy gradient,
VR's snapshot gradient of the step's sample included, is the rank-one
kernel of ``model.grad``. The momentum buffer is never reset across epochs.
A zero signal skips the weight update but still advances the step counter
so the learning-rate schedule stays aligned. A non-finite signal or
iterate, or a zero direction for a nonzero signal, is a FloatingPointError.
``run`` turns every ArithmeticError of a run (VR snapshot gradient, step or
metrics hook) into a ``TrainingError`` naming the completed steps, and
enters one ``np.errstate(over="ignore")`` for its whole loop: an overflow
shows as a non-finite iterate, which ``step`` rejects, or as a non-finite
value the hook checks for (the harness's metric row does).

Reproducibility: the PRNG is numpy's PCG64, seeded from the config. Each
reshuffle draws its n-1 Fisher-Yates swap indices in one
``integers(0, [n, n-1, ..., 2])`` call, which yields the same values and
leaves the generator in the same state as one scalar ``integers(0, i+1)``
call per swap, i = n-1 down to 1 (the tests pin both, plus golden
permutations). A full-batch run (b = n) draws nothing from the generator:
gradients evaluate a batch in sorted index order, so every permutation of
the full batch gives the full gradient bit for bit, and each epoch steps on
the dataset's cached full Batch instead. Identical configs therefore
produce bit-identical trajectories given the same numpy version, BLAS
build and thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NormSpec, as_matrix
from .model import ALL, CROSS_ENTROPY, Dataset, gather_batches, grad, _check_kind
from .steepest import steepest_map


class TrainingError(RuntimeError):
    """Training aborted; remembers the step index of the failure."""

    def __init__(self, step_index: int, cause: Exception):
        super().__init__(f"training aborted at step {step_index}: {cause}")
        self.step_index = step_index


@dataclass(frozen=True)
class Schedule:
    """Polynomially decaying step size eta_t = c * t^(-a), with eta_0 = eta0.

    The power law is singular at t = 0; the value there is a separate knob
    constrained to 0 <= eta0 <= c (defaulting to c at construction sites).
    """

    c: float
    a: float
    eta0: float

    def __post_init__(self):
        if not (self.c > 0.0):
            raise ValueError("schedule constant c must be positive")
        if not (0.0 < self.a <= 1.0):
            raise ValueError("schedule exponent a must lie in (0, 1]")
        if not (0.0 <= self.eta0 <= self.c):
            raise ValueError("eta0 must satisfy 0 <= eta0 <= c")

    def eta(self, t: int) -> float:
        if t == 0:
            return self.eta0
        return self.c * float(t) ** (-self.a)


@dataclass(frozen=True)
class OptimizerConfig:
    batch_size: int
    beta1: float  # momentum is on exactly when beta1 > 0
    vr_on: bool
    schedule: Schedule
    epochs: int
    seed: int
    norm: NormSpec
    loss: str = CROSS_ENTROPY

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not (0.0 <= self.beta1 < 1.0):
            raise ValueError("beta1 must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        _check_kind(self.loss)

    def validate_against(self, ds: Dataset):
        if ds.n % self.batch_size != 0:
            raise ValueError(f"batch_size {self.batch_size} must divide n = {ds.n}")


@dataclass
class TrainState:
    """Mutable loop state owned by exactly one run at a time."""

    w: np.ndarray
    momentum: np.ndarray  # the EMA buffer; stays zero with beta1 = 0
    snapshot_w: np.ndarray | None
    snapshot_full_grad: np.ndarray | None
    t: int
    rng: np.random.Generator


def init_state(cfg: OptimizerConfig, ds: Dataset, w0) -> TrainState:
    cfg.validate_against(ds)
    w = as_matrix(w0).copy()
    if w.shape != (ds.k, ds.d):
        raise ValueError(f"w0 shape {w.shape} does not match (k, d) = ({ds.k}, {ds.d})")
    return TrainState(
        w=w,
        momentum=np.zeros_like(w),
        snapshot_w=None,
        snapshot_full_grad=None,
        t=0,
        rng=np.random.Generator(np.random.PCG64(cfg.seed)),
    )


def reshuffle(state: TrainState, n: int, b: int) -> np.ndarray:
    """Fisher-Yates permutation of [0, n) as an (n/b, b) array, one batch per row.

    Draws the swap index j_i in [0, i] for every i = n-1, ..., 1 in one
    vectorised call (the stream of one scalar draw per swap), then applies
    the swaps in that order.
    """
    if n % b != 0:
        raise ValueError(f"batch size {b} must divide n = {n}")
    swaps = state.rng.integers(0, np.arange(n, 1, -1)).tolist()
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), swaps):
        order[i], order[j] = order[j], order[i]
    return np.array(order).reshape(n // b, b)


def step(state: TrainState, cfg: OptimizerConfig, ds: Dataset, batch) -> tuple[np.ndarray, float, np.ndarray]:
    """One update on ``batch`` (anything ``grad`` takes); advances the step
    counter even on zero signal.

    Returns what the step applied: the signal H_t (G_t unless beta1 > 0),
    the step size eta and the direction delta = steepest_map(H_t), with
    W <- W - eta * delta.
    Raises FloatingPointError for a non-finite signal (``NonFiniteError``
    from ``steepest_map``) or iterate, and for a zero direction of a nonzero
    signal; ``run`` reports it, like any ArithmeticError, as a TrainingError
    naming the completed steps. Outside ``run``'s errstate an overflow warns.
    """
    g = grad(state.w, ds, batch, cfg.loss)
    if cfg.vr_on:
        if state.snapshot_w is None or state.snapshot_full_grad is None:
            raise ValueError("variance reduction requires an epoch snapshot; call run()")
        g = g - grad(state.snapshot_w, ds, batch, cfg.loss) + state.snapshot_full_grad
    if cfg.beta1:
        h = state.momentum = cfg.beta1 * state.momentum + (1.0 - cfg.beta1) * g
    else:
        h = g
    eta = cfg.schedule.eta(state.t)
    delta = steepest_map(h, cfg.norm)
    if np.count_nonzero(delta):
        w = state.w - eta * delta
        if np.count_nonzero(np.isfinite(w)) != w.size:
            raise FloatingPointError(f"non-finite iterate after a step of size {eta!r}")
        state.w = w
    elif np.count_nonzero(h):
        raise FloatingPointError("zero direction for a nonzero signal")
    state.t += 1
    return h, eta, delta


def run(cfg: OptimizerConfig, ds: Dataset, w0, metrics_hook=None) -> TrainState:
    """Execute ``cfg.epochs`` epochs of m = n/b steps each.

    ``metrics_hook(t, w, h, eta, delta)`` is invoked synchronously after
    every step with the number of completed steps, the updated weights, the
    momentum/signal matrix H_t, the step size that was applied, and the
    unit-norm direction ``steepest_map(H_t)`` the step moved against
    (W <- W - eta * delta; zero when the signal was zero).
    Fully deterministic given (cfg.seed, w0, ds). A full-batch run draws
    nothing from the generator: each epoch is one step on ``ds.full``.
    Every ArithmeticError of the loop (VR snapshot, step or hook) becomes a
    TrainingError naming the completed steps; overflows do not warn (module notes).
    """
    state = init_state(cfg, ds, w0)
    with np.errstate(over="ignore"):  # step's iterate check reports an overflow
        try:
            for _ in range(cfg.epochs):
                if cfg.batch_size == ds.n:
                    batches = (ds.full,)
                else:
                    batches = gather_batches(ds, reshuffle(state, ds.n, cfg.batch_size))
                if cfg.vr_on:
                    state.snapshot_w = state.w.copy()
                    state.snapshot_full_grad = grad(state.w, ds, ALL, cfg.loss)
                for batch in batches:
                    applied = step(state, cfg, ds, batch)
                    if metrics_hook is not None:
                        metrics_hook(state.t, state.w, *applied)
        except ArithmeticError as exc:
            raise TrainingError(state.t, exc) from exc
    return state


# --- closed-form schedule constants ----------------------------------------


@dataclass(frozen=True)
class ScheduleConstants:
    """Explicit entry time t0 and constant c2 certifying the geometric
    step-size condition sum_s beta^s (e^(c1 * sum eta) - 1) <= c2 * eta_t."""

    lam: float
    t_head: int
    t_tail: int
    t_poly: int
    t_eta0: int
    t0: int
    c2: float


def schedule_constants(c: float, a: float, eta0: float, beta: float, c1: float) -> ScheduleConstants:
    """Closed-form (t0, c2) for the schedule eta_t = c * t^(-a).

    All four component times are clamped to at least 1; t0 additionally to
    at least 3. Valid for beta in (0, 1), c1 > 0, a in (0, 1],
    0 <= eta0 <= c.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if not (c1 > 0.0):
        raise ValueError("c1 must be positive")
    Schedule(c, a, eta0)  # the schedule's own checks on c, a and eta0
    lam = math.log(1.0 / beta)

    def at_least_one(x: float) -> int:
        return max(1, math.ceil(x))

    t_head = at_least_one((2.0 ** (a + 1.0) * c1 * c / lam) ** (1.0 / a))
    if a < 1.0:
        t_tail = at_least_one((8.0 * c1 * c / ((1.0 - a) * lam)) ** (1.0 / a))
    else:
        base = 32.0 * c1 * c / lam
        t_tail = at_least_one(base * math.log(base) if base > 1.0 else 1.0)
    poly_base = 16.0 * a / lam
    t_poly = at_least_one(poly_base * math.log(poly_base) if poly_base > 1.0 else 1.0)
    t_eta0 = at_least_one(8.0 * c1 * eta0 / lam)
    t0 = max(t_head, t_tail, t_poly, t_eta0, 3)
    c2 = 2.0 ** (a + 1.0) * c1 / (1.0 - beta) ** 2 + 1.0 / (c * (1.0 - beta))
    return ScheduleConstants(
        lam=lam, t_head=t_head, t_tail=t_tail, t_poly=t_poly, t_eta0=t_eta0, t0=t0, c2=c2
    )


@dataclass(frozen=True)
class MarginThresholds:
    """Batch/momentum trade-off constants for the effective margin targets."""

    rho_nomom: float
    rho_mom: float
    b_min: float


def effective_margin_thresholds(gamma: float, r: float, n: int, b: int, beta1: float) -> MarginThresholds:
    """Effective margins and minimum batch size.

    rho_nomom = gamma - 4 (n/b - 1) R          (no momentum)
    rho_mom   = gamma - 2 (1-beta1) m (m^2-1) R  with m = n/b
    b_min     = 4 R n / (gamma + 4 R)
    """
    if not (gamma > 0.0):
        raise ValueError("gamma must be positive")
    if not (r > 0.0):
        raise ValueError("r must be positive")
    if n % b != 0:
        raise ValueError(f"batch size {b} must divide n = {n}")
    if not (0.0 <= beta1 < 1.0):
        raise ValueError("beta1 must lie in [0, 1)")
    m = n // b
    rho_nomom = gamma - 4.0 * (m - 1) * r
    rho_mom = gamma - 2.0 * (1.0 - beta1) * m * (m * m - 1.0) * r
    b_min = 4.0 * r * n / (gamma + 4.0 * r)
    return MarginThresholds(rho_nomom=rho_nomom, rho_mom=rho_mom, b_min=b_min)
