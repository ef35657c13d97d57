import math

import numpy as np
import pytest

from normdescent import optimizer
from normdescent import (
    ALL,
    Dataset,
    NormSpec,
    OptimizerConfig,
    Schedule,
    TrainingError,
    effective_margin_thresholds,
    grad,
    init_state,
    loss,
    matrix_norm,
    reshuffle,
    run,
    schedule_constants,
    step,
    steepest_map,
)
from tests.conftest import divisible_dataset

EW2 = NormSpec("ew", 2.0)
EWINF = NormSpec("ew", math.inf)


def make_cfg(ds, b, epochs=1, beta1=0.0, vr=False, norm=EW2, seed=11, c=0.5, a=0.5):
    return OptimizerConfig(
        batch_size=b,
        beta1=beta1,
        vr_on=vr,
        schedule=Schedule(c=c, a=a, eta0=c),
        epochs=epochs,
        seed=seed,
        norm=norm,
    )


class TestSchedule:
    def test_values(self):
        s = Schedule(c=0.5, a=0.5, eta0=0.2)
        assert s.eta(0) == 0.2
        assert s.eta(1) == 0.5
        assert s.eta(4) == 0.25

    def test_eta0_cannot_exceed_c(self):
        with pytest.raises(ValueError):
            Schedule(c=0.5, a=0.5, eta0=0.6)


class TestReshuffle:
    def test_full_batch_is_permutation(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=4)
        state = init_state(make_cfg(ds, 4), ds, np.zeros((2, 2)))
        (batch,) = reshuffle(state, 4, 4)
        assert sorted(batch.tolist()) == [0, 1, 2, 3]

    def test_deterministic_from_identical_state(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=6)
        a = init_state(make_cfg(ds, 2, seed=5), ds, np.zeros((2, 2)))
        b = init_state(make_cfg(ds, 2, seed=5), ds, np.zeros((2, 2)))
        ba = reshuffle(a, 6, 2)
        bb = reshuffle(b, 6, 2)
        for x, y in zip(ba, bb):
            assert np.array_equal(x, y)

    def test_partition_over_seeded_draws(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=6)
        state = init_state(make_cfg(ds, 2, seed=123), ds, np.zeros((2, 2)))
        for _ in range(1000):
            batches = reshuffle(state, 6, 2)
            assert len(batches) == 3
            union = np.concatenate(batches)
            assert sorted(union.tolist()) == list(range(6))


def scalar_reshuffle(rng, n):
    """Reference: one scalar integers(0, i+1) draw per Fisher-Yates swap."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def seeded_state(seed):
    ds = Dataset(np.eye(2), np.array([0, 1]), 2)
    return init_state(make_cfg(ds, 2, seed=seed), ds, np.zeros((2, 2)))


class TestReshuffleStream:
    @pytest.mark.parametrize("n", [1, 2, 15, 200])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_matches_scalar_per_swap_stream(self, n, seed):
        state = seeded_state(seed)
        ref_rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(3):  # consecutive epochs share one stream
            (perm,) = reshuffle(state, n, n)
            assert np.array_equal(perm, scalar_reshuffle(ref_rng, n))
        assert state.rng.bit_generator.state == ref_rng.bit_generator.state

    def test_golden_permutations(self):
        # pins numpy's PCG64 integers stream; a numpy release that changes it
        # changes every training trajectory and must fail here first
        (perm15,) = reshuffle(seeded_state(0), 15, 15)
        assert perm15.tolist() == [7, 2, 14, 5, 10, 4, 1, 13, 9, 0, 11, 3, 6, 8, 12]
        (perm200,) = reshuffle(seeded_state(0), 200, 200)
        assert perm200[:20].tolist() == [
            174, 34, 87, 100, 32, 175, 27, 107, 189, 181, 164, 193, 11, 190, 41, 66, 47, 187, 17, 110
        ]


class TestStep:
    def test_full_batch_sign_step(self, rng):
        ds = divisible_dataset(rng, k=3, d=2, n=6)
        cfg = make_cfg(ds, 6, norm=EWINF)
        w0 = rng.standard_normal((3, 2))
        state = init_state(cfg, ds, w0)
        g = grad(w0, ds, ALL)
        step(state, cfg, ds, np.arange(6))
        expect = w0 - cfg.schedule.eta0 * np.sign(g)
        assert np.array_equal(state.w, expect)
        assert state.t == 1

    def test_step_returns_what_it_applied(self, rng):
        ds = divisible_dataset(rng, k=3, d=2, n=6)
        cfg = make_cfg(ds, 3)
        w0 = rng.standard_normal((3, 2))
        state = init_state(cfg, ds, w0)
        batch = np.array([4, 0, 2])
        h, eta, delta = step(state, cfg, ds, batch)
        assert np.array_equal(h, grad(w0, ds, batch))
        assert eta == cfg.schedule.eta0
        assert np.array_equal(delta, steepest_map(h, cfg.norm))
        assert np.array_equal(state.w, w0 - eta * delta)
        assert not state.momentum.any()  # the buffer is only written when beta1 > 0

    def test_vr_first_step_equals_full_gradient(self, rng):
        ds = divisible_dataset(rng, k=3, d=2, n=6)
        cfg = make_cfg(ds, 2, vr=True)
        w0 = rng.standard_normal((3, 2))
        state = init_state(cfg, ds, w0)
        state.snapshot_w = state.w.copy()
        state.snapshot_full_grad = grad(state.w, ds, ALL)
        full = state.snapshot_full_grad.copy()
        h, _, _ = step(state, cfg, ds, np.array([0, 1]))
        # the two batch terms cancel exactly, so the signal is the snapshot
        # full gradient
        assert np.array_equal(h, full)

    def test_momentum_unrolled_two_steps(self, rng):
        ds = divisible_dataset(rng, k=3, d=2, n=6)
        cfg = make_cfg(ds, 3, beta1=0.5)
        w0 = rng.standard_normal((3, 2))
        state = init_state(cfg, ds, w0)
        b0 = np.array([0, 1, 2])
        b1 = np.array([3, 4, 5])
        g0 = grad(state.w, ds, b0)
        step(state, cfg, ds, b0)
        g1 = grad(state.w, ds, b1)
        step(state, cfg, ds, b1)
        expect = 0.25 * g0 + 0.5 * g1
        assert np.abs(state.momentum - expect).max() <= 1e-15

    def test_zero_signal_skips_update_but_advances_t(self):
        # one point with two labels: the full gradient cancels exactly at w=0
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        ds = Dataset(x, np.array([0, 1]), 2)
        cfg = make_cfg(ds, 2)
        state = init_state(cfg, ds, np.zeros((2, 2)))
        g = grad(state.w, ds, ALL)
        assert not np.any(g)
        step(state, cfg, ds, np.arange(2))
        assert not np.any(state.w)
        assert state.t == 1


class TestRun:
    def test_non_finite_iterate_is_a_training_error(self):
        # subnormal features keep the logits small, so the gradient keeps
        # its sign and the second step of size c = 1e308 overflows W
        ds = Dataset(np.array([[1e-310, -1e-310]]), np.array([0, 1]), 2)
        cfg = make_cfg(ds, 2, epochs=3, norm=EWINF, c=1e308)
        with pytest.raises(TrainingError, match="non-finite") as info:
            run(cfg, ds, np.zeros((2, 1)))
        assert info.value.step_index == 1

    def test_zero_direction_for_nonzero_signal_is_a_training_error(self, rng, monkeypatch):
        ds = divisible_dataset(rng, k=2, d=2, n=4)
        monkeypatch.setattr(optimizer, "steepest_map", lambda h, spec: np.zeros_like(h))
        with pytest.raises(TrainingError, match="zero direction") as info:
            run(make_cfg(ds, 4), ds, np.zeros((2, 2)))
        assert info.value.step_index == 0

    def test_single_step_accounting(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=4)
        state = run(make_cfg(ds, 4, epochs=1), ds, np.zeros((2, 2)))
        assert state.t == 1

    def test_bit_identical_reruns(self, rng):
        ds = divisible_dataset(rng, k=3, d=3, n=12)
        cfg = make_cfg(ds, 4, epochs=5, beta1=0.9, seed=77)
        w1 = run(cfg, ds, np.zeros((3, 3))).w
        w2 = run(cfg, ds, np.zeros((3, 3))).w
        assert np.array_equal(w1, w2)

    def test_loss_drops_below_uniform(self, rng):
        ds = divisible_dataset(rng, k=3, d=3, n=30)
        cfg = make_cfg(ds, 30, epochs=200)
        state = run(cfg, ds, np.zeros((3, 3)))
        final = loss(state.w, ds)
        assert math.isfinite(final)
        assert final < math.log(3)

    def test_hook_sees_every_step(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=8)
        cfg = make_cfg(ds, 2, epochs=3)
        seen = []
        run(cfg, ds, np.zeros((2, 2)), metrics_hook=lambda t, w, h, eta, delta: seen.append((t, eta)))
        assert [t for t, _ in seen] == list(range(1, 13))
        assert seen[0][1] == cfg.schedule.eta0  # step at t=0 used eta0

    def test_hook_receives_applied_direction(self, rng):
        ds = divisible_dataset(rng, k=3, d=4, n=8)
        cfg = make_cfg(ds, 2, epochs=3, beta1=0.5)
        prev = {"w": np.zeros((3, 4))}

        def hook(t, w, h, eta, delta):
            assert np.array_equal(delta, steepest_map(h, cfg.norm))
            assert np.array_equal(w, prev["w"] - eta * delta)
            prev["w"] = w.copy()

        run(cfg, ds, prev["w"].copy(), metrics_hook=hook)

    def test_vr_full_batch_matches_plain_full_batch_bitwise(self, rng):
        ds = divisible_dataset(rng, k=3, d=4, n=10)
        traj_plain, traj_vr = [], []
        run(make_cfg(ds, 10, epochs=40, vr=False, seed=3), ds, np.zeros((3, 4)),
            metrics_hook=lambda t, w, h, eta, delta: traj_plain.append(w.copy()))
        run(make_cfg(ds, 10, epochs=40, vr=True, seed=3), ds, np.zeros((3, 4)),
            metrics_hook=lambda t, w, h, eta, delta: traj_vr.append(w.copy()))
        for wa, wb in zip(traj_plain, traj_vr):
            assert np.array_equal(wa, wb)

    def test_momentum_telescoping(self, rng):
        # H_t must equal (1-b) sum_tau b^tau G_(t-tau) with zero init
        ds = divisible_dataset(rng, k=3, d=3, n=12)
        cfg = make_cfg(ds, 4, beta1=0.7)
        state = init_state(cfg, ds, 0.1 * rng.standard_normal((3, 3)))
        gs = []
        for t in range(10):
            batch = rng.choice(12, size=4, replace=False)
            gs.append(grad(state.w, ds, batch))
            step(state, cfg, ds, batch)
            expect = sum(
                (1 - 0.7) * 0.7 ** tau * gs[t - tau] for tau in range(t + 1)
            )
            assert np.abs(state.momentum - expect).max() <= 1e-12

    def test_per_step_displacement_bound(self, rng):
        ds = divisible_dataset(rng, k=3, d=3, n=12)
        cfg = make_cfg(ds, 3, epochs=4)
        prev = {"w": np.zeros((3, 3)), "t": 0}
        etas = []

        def hook(t, w, h, eta, delta):
            moved = matrix_norm(w - prev["w"], cfg.norm)
            assert moved <= eta * (1 + 1e-12)
            prev["w"] = w.copy()
            etas.append(eta)

        state = run(cfg, ds, prev["w"].copy(), metrics_hook=hook)
        # weight-norm growth: triangle inequality over the updates
        assert matrix_norm(state.w, cfg.norm) <= sum(etas) * (1 + 1e-12)

    def test_rr_zero_sum_at_frozen_weights(self, rng):
        ds = divisible_dataset(rng, k=3, d=3, n=12)
        cfg = make_cfg(ds, 3)
        state = init_state(cfg, ds, rng.standard_normal((3, 3)))
        batches = reshuffle(state, 12, 3)
        full = grad(state.w, ds, ALL)
        total = sum(grad(state.w, ds, b) for b in batches)
        assert np.abs(total - 4 * full).max() <= 1e-10

    def test_batch_size_must_divide_n(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=10)
        with pytest.raises(ValueError):
            run(make_cfg(ds, 3), ds, np.zeros((2, 2)))


FULL_BATCH_MODES = pytest.mark.parametrize(
    "momentum,vr", [(False, False), (True, False), (False, True)], ids=["plain", "momentum", "vr"]
)


class TestFullBatchDrawsNothing:
    @FULL_BATCH_MODES
    def test_full_batch_run_leaves_the_generator_untouched(self, rng, momentum, vr):
        ds = divisible_dataset(rng, k=3, d=2, n=8)
        cfg = make_cfg(ds, 8, epochs=5, beta1=0.5 * momentum, vr=vr, seed=19)
        state = run(cfg, ds, np.zeros((3, 2)))
        assert state.t == 5
        assert state.rng.bit_generator.state == np.random.PCG64(19).state

    def test_mini_batch_run_advances_the_generator(self, rng):
        ds = divisible_dataset(rng, k=3, d=2, n=8)
        state = run(make_cfg(ds, 4, epochs=1, seed=19), ds, np.zeros((3, 2)))
        assert state.rng.bit_generator.state != np.random.PCG64(19).state

    @FULL_BATCH_MODES
    def test_full_batch_run_matches_stepping_through_reshuffled_epochs(self, rng, momentum, vr):
        # the trajectory a full-batch run took when each epoch drew its permutation
        ds = divisible_dataset(rng, k=3, d=4, n=10)
        cfg = make_cfg(ds, 10, epochs=6, beta1=0.5 * momentum, vr=vr, norm=EWINF)
        seen = []
        run(cfg, ds, np.zeros((3, 4)), metrics_hook=lambda t, w, h, eta, delta: seen.append(w.copy()))
        state = init_state(cfg, ds, np.zeros((3, 4)))
        for t in range(cfg.epochs):
            (perm,) = reshuffle(state, ds.n, ds.n)
            state.snapshot_w, state.snapshot_full_grad = state.w.copy(), grad(state.w, ds, ALL)
            step(state, cfg, ds, perm)
            assert np.array_equal(state.w, seen[t])


class TestScheduleConstants:
    def test_hand_example(self):
        sc = schedule_constants(c=1.0, a=1.0, eta0=1.0, beta=0.5, c1=1.0)
        lam = math.log(2.0)
        assert sc.lam == pytest.approx(lam)
        assert sc.t_head == math.ceil(4.0 / lam)
        assert sc.t_head == 6
        assert sc.c2 == pytest.approx(4.0 / 0.25 + 1.0 / 0.5)

    def test_t0_dominates_components(self, rng):
        for _ in range(50):
            c = float(rng.uniform(0.1, 2.0))
            a = float(rng.uniform(0.2, 1.0))
            beta = float(rng.uniform(0.05, 0.95))
            c1 = float(rng.uniform(0.1, 3.0))
            eta0 = float(rng.uniform(0.0, c))
            sc = schedule_constants(c, a, eta0, beta, c1)
            assert sc.t0 >= 3
            for comp in (sc.t_head, sc.t_tail, sc.t_poly, sc.t_eta0):
                assert comp >= 1
                assert sc.t0 >= comp

    def test_direct_summation_oracle(self):
        # one fixed tuple checked by brute-force evaluation of the
        # geometric exponential sum on [t0, t0 + 500]
        c, a, eta0, beta, c1 = 0.5, 0.5, 0.5, 0.9, 1.2
        sc = schedule_constants(c, a, eta0, beta, c1)
        horizon = sc.t0 + 500
        eta = np.zeros(horizon + 1)
        eta[0] = eta0
        ts = np.arange(1, horizon + 1, dtype=float)
        eta[1:] = c * ts ** (-a)
        prefix = np.concatenate([[0.0], np.cumsum(eta)])  # prefix[j] = sum_(u<j) eta_u
        log_beta = math.log(beta)
        for t in range(sc.t0, horizon + 1):
            s = np.arange(0, t + 1)
            inner = c1 * (prefix[t] - prefix[t - s])
            live = inner > 0  # s = 0 contributes exactly zero
            # sum in log space: individual terms can overflow exp() even
            # though their beta^s-weighted values are tiny
            log_terms = s[live] * log_beta + inner[live] + np.log1p(-np.exp(-inner[live]))
            lhs = float(np.exp(log_terms).sum())
            assert lhs <= sc.c2 * eta[t] * (1 + 1e-9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            schedule_constants(1.0, 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            schedule_constants(1.0, 1.5, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            schedule_constants(1.0, 0.5, 2.0, 0.5, 1.0)


class TestEffectiveMarginThresholds:
    def test_full_batch_degeneracy(self):
        thr = effective_margin_thresholds(gamma=0.3, r=2.0, n=200, b=200, beta1=0.5)
        assert thr.rho_nomom == 0.3
        assert thr.rho_mom == 0.3

    def test_momentum_limit_recovers_gamma(self):
        thr = effective_margin_thresholds(gamma=0.3, r=2.0, n=200, b=20, beta1=1 - 1e-12)
        assert thr.rho_mom == pytest.approx(0.3, abs=1e-6)

    def test_formula_arithmetic(self):
        thr = effective_margin_thresholds(gamma=1.0, r=1.0, n=200, b=20, beta1=0.0)
        assert thr.rho_nomom == 1.0 - 36.0
        assert thr.b_min == pytest.approx(160.0)

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            effective_margin_thresholds(1.0, 1.0, 10, 5, 1.0)
