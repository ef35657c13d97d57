import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normdescent import (
    ALL,
    CROSS_ENTROPY,
    EXPONENTIAL,
    Dataset,
    LossOverflowError,
    NormSpec,
    dual_norm,
    grad,
    load_dataset,
    load_matrix,
    loss,
    margin_report,
    max_margin,
    proxy_g,
    save_dataset,
    save_matrix,
)
from normdescent import model
from normdescent.optimizer import OptimizerConfig, Schedule, TrainingError, init_state, reshuffle, run
from tests.conftest import divisible_dataset, random_dataset
from tests.test_linalg import ALL_SPECS


def naive_ce_loss(w, ds):
    total = 0.0
    for i in range(ds.n):
        z = w @ ds.x[:, i]
        p = np.exp(z) / np.exp(z).sum()
        total += -math.log(p[ds.y[i]])
    return total / ds.n


def naive_exp_loss(w, ds):
    total = 0.0
    for i in range(ds.n):
        z = w @ ds.x[:, i]
        for c in range(ds.k):
            if c != ds.y[i]:
                total += math.exp(-(z[ds.y[i]] - z[c]))
    return total / ds.n


def fd_grad(w, ds, kind, h=1e-6):
    out = np.zeros_like(w)
    for r in range(w.shape[0]):
        for c in range(w.shape[1]):
            wp = w.copy()
            wm = w.copy()
            wp[r, c] += h
            wm[r, c] -= h
            out[r, c] = (loss(wp, ds, kind) - loss(wm, ds, kind)) / (2 * h)
    return out


class TestLoss:
    def test_zero_weights_cross_entropy(self, rng):
        ds = random_dataset(rng, k=4)
        assert loss(np.zeros((4, ds.d)), ds, CROSS_ENTROPY) == pytest.approx(math.log(4), abs=1e-12)

    def test_zero_weights_exponential(self, rng):
        ds = random_dataset(rng, k=4)
        assert loss(np.zeros((4, ds.d)), ds, EXPONENTIAL) == pytest.approx(3.0, abs=1e-12)

    def test_matches_naive_summation(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, k=3, d=2, n=4)
            w = rng.standard_normal((3, 2))
            assert loss(w, ds, CROSS_ENTROPY) == pytest.approx(naive_ce_loss(w, ds), abs=1e-12)
            assert loss(w, ds, EXPONENTIAL) == pytest.approx(naive_exp_loss(w, ds), abs=1e-12)

    def test_tiny_losses_keep_relative_precision(self):
        # separable 2-class data driven to a huge margin: the stable path
        # must report sum of exp(-margin) instead of rounding to zero
        x = np.array([[1.0, -1.0]])
        ds = Dataset(x, np.array([0, 1]), 2)
        w = np.array([[30.0], [-30.0]])
        expect = math.exp(-60.0)
        assert loss(w, ds, CROSS_ENTROPY) == pytest.approx(expect, rel=1e-9)

    def test_exponential_overflow_names_sample(self):
        x = np.array([[1.0, -1.0]])
        ds = Dataset(x, np.array([0, 1]), 2)
        w = np.array([[-400.0], [400.0]])
        with pytest.raises(LossOverflowError) as err:
            loss(w, ds, EXPONENTIAL)
        assert err.value.sample == 0

    def test_unknown_kind_rejected(self, rng):
        ds = random_dataset(rng, k=2)
        with pytest.raises(ValueError):
            loss(np.zeros((2, ds.d)), ds, "hinge")


class TestGrad:
    def test_uniform_softmax_at_zero(self):
        x = np.array([[0.5], [2.0]])
        ds = Dataset(np.hstack([x, x]), np.array([0, 1]), 2)
        g = grad(np.zeros((2, 2)), ds, np.array([0]))
        e0 = np.array([1.0, 0.0])
        expect = -np.outer(e0 - 0.5, x[:, 0])
        assert np.abs(g - expect).max() <= 1e-14

    def test_column_sums_vanish(self, rng):
        for _ in range(10):
            ds = random_dataset(rng)
            w = rng.standard_normal((ds.k, ds.d))
            g = grad(w, ds, ALL, CROSS_ENTROPY)
            assert np.abs(g.sum(axis=0)).max() <= 1e-12

    def test_column_sums_vanish_exponential(self, rng):
        # exp-loss gradients can be exponentially large, so the simplex
        # identity holds to relative precision
        for _ in range(10):
            ds = random_dataset(rng)
            w = 0.3 * rng.standard_normal((ds.k, ds.d))
            g = grad(w, ds, ALL, EXPONENTIAL)
            scale = max(1.0, float(np.abs(g).max()))
            assert np.abs(g.sum(axis=0)).max() <= 1e-12 * scale

    def test_finite_differences(self, rng):
        for kind in (CROSS_ENTROPY, EXPONENTIAL):
            for _ in range(10):
                ds = random_dataset(rng, k=3, d=3, n=6)
                w = 0.3 * rng.standard_normal((3, 3))
                g = grad(w, ds, ALL, kind)
                assert np.abs(g - fd_grad(w, ds, kind)).max() <= 1e-5

    def test_empty_batch_rejected(self, rng):
        ds = random_dataset(rng)
        with pytest.raises(ValueError):
            grad(np.zeros((ds.k, ds.d)), ds, np.array([], dtype=int))

    @pytest.mark.parametrize("kind", [CROSS_ENTROPY, EXPONENTIAL])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_permuted_full_batch_is_the_full_gradient_bitwise(self, rng, kind, order):
        # a full-batch run steps on ALL instead of a drawn permutation
        for _ in range(10):
            ds = random_dataset(rng)
            ds = Dataset(np.asarray(ds.x, order=order), ds.y, ds.k)
            w = 0.5 * rng.standard_normal((ds.k, ds.d))
            assert np.array_equal(grad(w, ds, rng.permutation(ds.n), kind), grad(w, ds, ALL, kind))


def tuple_offtarget_probs(w, x, y):
    """``model._offtarget_probs`` with the target entries indexed by (row, column)."""
    z = w @ x
    p = np.exp(z - z.max(axis=0, keepdims=True))
    p /= p.sum(axis=0, keepdims=True)
    p[y, np.arange(y.size)] = 0.0
    return p


def tuple_gaps(z, y):
    cols = np.arange(y.size)
    gaps = z[y, cols][None, :] - z
    gaps[y, cols] = np.inf
    return gaps


def tuple_pair_sum(coeff, x, y):
    coeff[y, np.arange(y.size)] = -coeff.sum(axis=0)
    return coeff @ x.T


class TestFlatTargetKernels:
    """The kernels index each target entry by its flat position y * m + j in
    the C-ordered (k, m) array; that must be the (y_j, j) entry, bit for bit."""

    @staticmethod
    def batches(ds, rng):
        yield "b=1", np.array([int(rng.integers(ds.n))])
        # a sorted half of the samples: with n >= 3k some class repeats
        yield "repeated classes", np.sort(rng.choice(ds.n, ds.n // 2 + 1, replace=False))
        yield "full", np.arange(ds.n)

    @pytest.mark.parametrize("seed", range(8))
    def test_kernels_equal_the_tuple_indexed_formulas(self, seed):
        rng = np.random.default_rng([seed, 17])
        k = int(rng.integers(2, 5))
        ds = random_dataset(rng, k=k, n=int(rng.integers(3 * k, 4 * k + 1)))
        w = rng.standard_normal((ds.k, ds.d))
        for name, idx in self.batches(ds, rng):
            y, m = ds.y[idx], idx.size
            if name == "repeated classes":
                assert np.unique(y).size < m
            x = ds.x[:, idx]
            flat = y * m + np.arange(m)
            if name == "full":
                assert np.array_equal(flat, ds.full.target)
                x = ds.full.x
            p = model._offtarget_probs(w, x, flat)
            assert p.tobytes() == tuple_offtarget_probs(w, x, y).tobytes(), name
            z = w @ x
            assert model._gaps(z, flat).tobytes() == tuple_gaps(z, y).tobytes(), name
            coeff, expect = p.copy(), p.copy()
            got = model._pair_sum(coeff, x, flat)
            assert got.tobytes() == tuple_pair_sum(expect, x, y).tobytes(), name
            assert coeff.tobytes() == expect.tobytes(), name


class TestFullBatchView:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_view_is_the_gather_in_its_layout(self, rng, order):
        ds = random_dataset(rng)
        ds = Dataset(np.asarray(ds.x, order=order), ds.y, ds.k)
        gathered = ds.x[:, np.arange(ds.n)]
        x, target = ds.full.x, ds.full.target
        assert x is ds.x
        assert x.flags.f_contiguous and x.strides == gathered.strides
        assert x.tobytes(order="A") == gathered.tobytes(order="A")
        assert np.array_equal(target, ds.y * ds.n + np.arange(ds.n))

    def test_view_is_built_once_per_dataset(self, rng, monkeypatch):
        calls = []
        real = model.gather_batches
        monkeypatch.setattr(model, "gather_batches", lambda ds, order: calls.append(ds) or real(ds, order))
        ds = random_dataset(rng)
        assert ds.full is ds.full
        w = rng.standard_normal((ds.k, ds.d))
        loss(w, ds), proxy_g(w, ds), grad(w, ds), margin_report(w, ds, NormSpec("ew", 2.0))
        assert calls == []
        other = Dataset(ds.x, ds.y, ds.k)
        assert other.full is not ds.full and other.x is not ds.x

    def test_full_batch_vr_run_never_gathers(self, rng, monkeypatch):
        calls = []
        real = model.gather_batches
        monkeypatch.setattr(model, "gather_batches", lambda ds, order: calls.append(ds) or real(ds, order))
        ds = divisible_dataset(rng, k=3, d=2, n=9)
        cfg = OptimizerConfig(batch_size=9, beta1=0.0, vr_on=True,
                              schedule=Schedule(0.5, 0.5, 0.5), epochs=20, seed=3,
                              norm=NormSpec("ew", 2.0))
        run(cfg, ds, np.zeros((3, 2)))
        assert calls == []


class TestBatchValidation:
    """An index batch is a nonempty 1-D set of distinct integer sample indices."""

    @pytest.mark.parametrize(
        "batch,message",
        [
            (np.array([True, False, True, False, False, False]), "batch indices must be integers, got dtype bool"),
            ([1.7], "batch indices must be integers, got dtype float64"),
            (np.array([[0, 1], [2, 3]]), "batch must be a 1-D array of sample indices, got shape (2, 2)"),
            (3, "batch must be a 1-D array of sample indices, got shape ()"),
            ([4, 0, 4], "batch indices must be distinct; 4 repeats"),
            ([], "batch must be nonempty"),
            ([0, 6], "batch indices out of range"),
            ([-1, 2], "batch indices out of range"),
        ],
        ids=["mask", "float", "2-D", "scalar", "duplicate", "empty", "above", "negative"],
    )
    def test_malformed_batch_is_rejected(self, rng, batch, message):
        ds = divisible_dataset(rng, k=2, d=3, n=6)
        with pytest.raises(ValueError) as err:
            grad(np.zeros((2, 3)), ds, batch)
        assert str(err.value) == message

    @pytest.mark.parametrize("batch", [[3, 1], np.array([3, 1], dtype=np.uint8), range(1, 4, 2)])
    def test_integer_index_sets_are_accepted(self, rng, batch):
        ds = divisible_dataset(rng, k=2, d=3, n=6)
        w = rng.standard_normal((2, 3))
        assert grad(w, ds, batch).tobytes() == grad(w, ds, np.array([1, 3])).tobytes()


class TestPreparedBatches:
    """A mini-batch epoch steps on Batches cut from one gather of its permutation."""

    @pytest.mark.parametrize("kind", [CROSS_ENTROPY, EXPONENTIAL])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("b", [1, 4, 12])
    def test_prepared_gradient_is_the_index_gradient_bitwise(self, rng, kind, order, b):
        ds = divisible_dataset(rng, k=3, d=4, n=12)
        ds = Dataset(np.asarray(ds.x, order=order), ds.y, ds.k)
        w = 0.5 * rng.standard_normal((ds.k, ds.d))
        perm = rng.permutation(ds.n).reshape(-1, b)
        batches = model.gather_batches(ds, perm)
        assert len(batches) == ds.n // b
        for row, batch in zip(perm, batches):
            idx = np.sort(row)
            gathered = ds.x[:, idx]
            target = ds.y[idx] * b + np.arange(b)
            assert len(batch) == b and np.array_equal(batch.idx, idx)
            assert batch.x.strides == gathered.strides
            assert batch.x.tobytes(order="A") == gathered.tobytes(order="A")
            assert np.array_equal(batch.target, target)
            got = grad(w, ds, batch, kind)
            assert got.tobytes() == grad(w, ds, row, kind).tobytes()
            # the kernels on the direct gather ds.x[:, idx]
            if kind == CROSS_ENTROPY:
                coeff = model._offtarget_probs(w, gathered, target)
            else:
                coeff = model._exp_weights(w, gathered, target, idx)
            assert got.tobytes() == (model._pair_sum(coeff, gathered, target) / b).tobytes()

    def test_mini_batch_vr_run_gathers_once_per_epoch(self, rng, monkeypatch):
        from normdescent import optimizer

        gathers, indexed, grads = [], [], []
        real_gather, real_as_batch, real_grad = optimizer.gather_batches, model._as_batch, optimizer.grad
        monkeypatch.setattr(optimizer, "gather_batches",
                            lambda ds, order: gathers.append(order.shape) or real_gather(ds, order))
        monkeypatch.setattr(model, "_as_batch", lambda ds, batch: indexed.append(batch) or real_as_batch(ds, batch))
        monkeypatch.setattr(optimizer, "grad",
                            lambda w, ds, batch, kind: grads.append(batch) or real_grad(w, ds, batch, kind))
        ds = divisible_dataset(rng, k=3, d=2, n=9)
        cfg = OptimizerConfig(batch_size=3, beta1=0.0, vr_on=True,
                              schedule=Schedule(0.5, 0.5, 0.5), epochs=20, seed=3,
                              norm=NormSpec("ew", 2.0))
        run(cfg, ds, np.zeros((3, 2)))
        assert gathers == [(3, 3)] * 20
        assert indexed == []
        # per epoch: the snapshot's full gradient, then two gradients per step on one prepared Batch
        assert len(grads) == 20 * 7
        for e in range(20):
            epoch = grads[7 * e : 7 * (e + 1)]
            assert epoch[0] is ALL
            assert all(isinstance(b, model.Batch) for b in epoch[1:])
            assert [epoch[i] is epoch[i + 1] for i in (1, 3, 5)] == [True] * 3


def _bytes_or_error(f):
    try:
        return f().tobytes()
    except LossOverflowError as exc:
        return str(exc)


class TestSampleKernel:
    """A one-sample batch takes the rank-one kernel, with the bytes of the
    (k, m) kernels at m = 1, and its batches are views built once."""

    @pytest.mark.parametrize("kind", [CROSS_ENTROPY, EXPONENTIAL])
    @pytest.mark.parametrize("k", [2, 5, 10, 12, 33])
    def test_kernel_is_the_batch_kernels_bitwise(self, kind, k):
        rng = np.random.default_rng([k, 26])
        y = np.concatenate([np.arange(k), rng.integers(0, k, size=k)])
        x = rng.standard_normal((7, 2 * k))
        x[rng.random(x.shape) < 0.3] = 0.0  # zero features: c_i * 0.0 must keep its +0.0
        ds = Dataset(x, y, k)
        # softmax entries underflow to zero, and exp(-gap) overflows, at the larger scales
        for scale in (0.1, 1.0, 10.0, 100.0):
            w = scale * rng.standard_normal((k, ds.d))
            for i in range(ds.n):
                gathered, target = ds.x[:, [i]], ds.y[[i]]

                def batch_route():
                    if kind == CROSS_ENTROPY:
                        coeff = model._offtarget_probs(w, gathered, target)
                    else:
                        coeff = model._exp_weights(w, gathered, target, [i])
                    return model._pair_sum(coeff, gathered, target) / 1

                expect = _bytes_or_error(batch_route)
                assert _bytes_or_error(lambda: model._sample_grad(w, ds.samples[i], kind)) == expect
                assert _bytes_or_error(lambda: grad(w, ds, [i], kind)) == expect

    def test_only_one_sample_batches_reach_the_kernel(self, rng, monkeypatch):
        sizes = []
        real = model._sample_grad
        monkeypatch.setattr(model, "_sample_grad",
                            lambda w, batch, kind: sizes.append(len(batch)) or real(w, batch, kind))
        ds = divisible_dataset(rng, k=3, d=2, n=6)
        w = rng.standard_normal((3, 2))
        for batch in (ALL, [4], [1, 4], np.arange(6), ds.samples[2], ds.full):
            grad(w, ds, batch)
        assert sizes == [1, 1]

    def test_exponential_overflow_names_the_sample_of_a_one_sample_step(self):
        # only sample 2 (x = e_2, y = 0) has a gap below -700: z_y - z_c = -800
        x = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        ds = Dataset(x, np.array([0, 1, 0, 1]), 2)
        w = np.array([[0.0, -400.0], [0.0, 400.0]])
        for i in (0, 1, 3):
            assert np.isfinite(grad(w, ds, [i], EXPONENTIAL)).all()
        message = "^exponential loss overflow at sample 2: exp argument 800.0 > 700$"
        with pytest.raises(LossOverflowError, match=message) as err:
            grad(w, ds, ds.samples[2], EXPONENTIAL)
        assert err.value.sample == 2
        cfg = OptimizerConfig(batch_size=1, beta1=0.0, vr_on=False, schedule=Schedule(1e-9, 0.5, 1e-9),
                              epochs=1, seed=4, norm=NormSpec("ew", 2.0), loss=EXPONENTIAL)
        state = init_state(cfg, ds, w)
        position = int(np.nonzero(reshuffle(state, ds.n, 1)[:, 0] == 2)[0][0])
        with pytest.raises(TrainingError) as info:
            run(cfg, ds, w)
        assert info.value.step_index == position
        assert info.value.__cause__.sample == 2

    def test_per_sample_batches_are_column_views_built_once(self, rng):
        ds = random_dataset(rng, n=9)
        samples = ds.samples
        assert ds.samples is samples and len(samples) == ds.n
        for i, sample in enumerate(samples):
            assert len(sample) == sample.size == 1
            assert np.shares_memory(sample.x, ds.x) and sample.x.shape == (ds.d, 1)
            assert sample.x.strides == ds.x[:, [i]].strides
            assert sample.x.tobytes(order="A") == ds.x[:, [i]].tobytes(order="A")
            assert sample.idx.tolist() == [i] and sample.target.tolist() == [int(ds.y[i])]
        assert Dataset(ds.x, ds.y, ds.k).samples[0] is not samples[0]

    def test_one_sample_rows_are_the_datasets_batches_in_row_order(self, rng):
        ds = random_dataset(rng, n=9)
        order = rng.permutation(ds.n)[:, None]
        got = model.gather_batches(ds, order)
        assert [b is ds.samples[i] for b, i in zip(got, order[:, 0])] == [True] * ds.n
        for bad in ([[ds.n]], [[-1]], [[0], [ds.n]]):
            with pytest.raises(ValueError, match="^batch indices out of range$"):
                model.gather_batches(ds, np.array(bad))


class TestProxy:
    def test_uniform_softmax_value(self, rng):
        ds = random_dataset(rng, k=5)
        assert proxy_g(np.zeros((5, ds.d)), ds) == pytest.approx(1 - 1 / 5, abs=1e-12)

    def test_exp_proxy_equals_loss(self, rng):
        ds = random_dataset(rng)
        w = 0.4 * rng.standard_normal((ds.k, ds.d))
        assert proxy_g(w, ds, EXPONENTIAL) == loss(w, ds, EXPONENTIAL)

    def test_proxy_loss_sandwich(self, rng):
        # G <= L always; G >= L (1 - nL/2) in the validity range
        for _ in range(50):
            ds = random_dataset(rng)
            w = 0.5 * rng.standard_normal((ds.k, ds.d))
            g = proxy_g(w, ds)
            l = loss(w, ds)
            assert g <= l * (1 + 1e-12)
            assert g >= l * (1 - ds.n * l / 2) - 1e-12


class TestMarginReport:
    SPEC = NormSpec("ew", 2.0)

    def test_two_class_hand_example(self):
        ds = Dataset(np.array([[1.0, -1.0]]), np.array([0, 1]), 2)
        rep = margin_report(np.array([[1.0], [-1.0]]), ds, self.SPEC)
        assert rep.unnormalized_min == pytest.approx(2.0, abs=1e-14)
        assert rep.normalized * rep.weight_norm == pytest.approx(2.0, abs=1e-10)

    def test_zero_weights(self, rng):
        ds = random_dataset(rng)
        rep = margin_report(np.zeros((ds.k, ds.d)), ds, self.SPEC)
        assert rep.unnormalized_min == 0.0
        assert rep.normalized == -math.inf

    def test_exhaustive_oracle(self, rng):
        for _ in range(20):
            ds = random_dataset(rng)
            w = rng.standard_normal((ds.k, ds.d))
            rep = margin_report(w, ds, self.SPEC)
            z = w @ ds.x  # shared logits; the oracle enumerates every pair
            best = math.inf
            for i in range(ds.n):
                for c in range(ds.k):
                    if c == ds.y[i]:
                        continue
                    v = z[ds.y[i], i] - z[c, i]
                    if v < best:
                        best = v
            assert rep.unnormalized_min == best
            if rep.weight_norm > 0:
                assert abs(rep.normalized * rep.weight_norm - rep.unnormalized_min) <= 1e-10

    def test_all_pairs_tied_at_zero_w(self):
        # every pair margin is zero at w = 0: the report is exactly
        # (min 0.0, norm 0.0, normalized -inf) and nothing else
        x = np.eye(3)
        ds = Dataset(x, np.array([0, 1, 2]), 3)
        rep = margin_report(np.zeros((3, 3)), ds, self.SPEC)
        assert dataclasses.astuple(rep) == (0.0, 0.0, -math.inf)
        assert math.copysign(1.0, rep.unnormalized_min) == 1.0


def gradient_noise_bound_check(w, ds: Dataset, batch) -> tuple[float, float]:
    """Both sides of the mini-batch noise bound ||grad_B - grad||_1 <= 2(m-1) R G(W).

    Requires |batch| to divide n so m = n/|batch| is an integer.
    """
    size = len(batch)
    if ds.n % size != 0:
        raise ValueError(f"batch size {size} must divide n = {ds.n}")
    m = ds.n // size
    diff = grad(w, ds, batch) - grad(w, ds, ALL)
    lhs = float(np.abs(diff).sum())
    rhs = 2.0 * (m - 1) * ds.r_bound * proxy_g(w, ds)
    return lhs, rhs


class TestNoiseBound:
    def test_full_batch_is_zero(self, rng):
        ds = divisible_dataset(rng, k=3, d=3, n=12)
        lhs, rhs = gradient_noise_bound_check(np.zeros((3, 3)), ds, np.arange(12))
        assert lhs == 0.0
        assert rhs == 0.0

    def test_half_batch_holds(self, rng):
        ds = divisible_dataset(rng, k=3, d=4, n=12)
        w = rng.standard_normal((3, 4))
        lhs, rhs = gradient_noise_bound_check(w, ds, np.arange(6))
        assert lhs <= rhs

    def test_random_sweep(self, rng):
        for _ in range(200):
            n = int(rng.choice([8, 12, 16, 20, 24]))
            k = int(rng.integers(2, 6))
            ds = divisible_dataset(rng, k=k, d=int(rng.integers(1, 6)), n=n)
            w = rng.standard_normal((ds.k, ds.d))
            b = int(rng.choice([v for v in (1, 2, 4, n // 2, n) if n % v == 0]))
            batch = rng.choice(n, size=b, replace=False)
            lhs, rhs = gradient_noise_bound_check(w, ds, batch)
            assert lhs <= rhs * (1 + 1e-12) + 1e-15

    def test_indivisible_batch_rejected(self, rng):
        ds = divisible_dataset(rng, k=2, d=2, n=10)
        with pytest.raises(ValueError):
            gradient_noise_bound_check(np.zeros((2, 2)), ds, np.arange(3))


class TestStabilityBounds:
    def test_proxy_stability(self, rng):
        for kind in (CROSS_ENTROPY, EXPONENTIAL):
            for _ in range(50):
                ds = random_dataset(rng)
                w = 0.5 * rng.standard_normal((ds.k, ds.d))
                delta = 0.3 * rng.standard_normal((ds.k, ds.d))
                ratio_bound = math.exp(2 * ds.r_bound * np.abs(delta).max())
                assert proxy_g(w + delta, ds, kind) <= ratio_bound * proxy_g(w, ds, kind) * (1 + 1e-12)

    def test_gradient_stability(self, rng):
        for kind in (CROSS_ENTROPY, EXPONENTIAL):
            for _ in range(50):
                ds = random_dataset(rng)
                w = 0.5 * rng.standard_normal((ds.k, ds.d))
                delta = 0.3 * rng.standard_normal((ds.k, ds.d))
                diff = grad(w + delta, ds, ALL, kind) - grad(w, ds, ALL, kind)
                bound = 2 * ds.r_bound * (math.exp(2 * ds.r_bound * np.abs(delta).max()) - 1)
                assert np.abs(diff).sum() <= bound * proxy_g(w, ds, kind) * (1 + 1e-12) + 1e-15

    def test_vr_deviation_bound(self, rng):
        for _ in range(50):
            ds = divisible_dataset(rng, k=3, d=3, n=12)
            w = 0.5 * rng.standard_normal((3, 3))
            w2 = w + 0.3 * rng.standard_normal((3, 3))
            batch = rng.choice(12, size=4, replace=False)
            m = 3
            dev = grad(w, ds, batch) - grad(w2, ds, batch) + grad(w2, ds, ALL) - grad(w, ds, ALL)
            bound = 2 * (m - 1) * ds.r_bound * (math.exp(2 * ds.r_bound * np.abs(w - w2).max()) - 1)
            assert np.abs(dev).sum() <= bound * proxy_g(w, ds) * (1 + 1e-12) + 1e-15

    def test_epoch_zero_sum(self, rng):
        ds = divisible_dataset(rng, k=3, d=3, n=12)
        w = rng.standard_normal((3, 3))
        perm = rng.permutation(12)
        full = grad(w, ds, ALL)
        acc = np.zeros_like(full)
        for j in range(4):
            acc += grad(w, ds, perm[3 * j : 3 * (j + 1)]) - full
        assert np.abs(acc).max() <= 1e-10

    def test_separability_from_low_loss(self, rng):
        # scale a separating direction until the loss crosses log2/n, then
        # every pairwise margin must be nonnegative
        x = np.hstack([np.eye(3), 0.5 * np.eye(3) + 0.1])
        ds = Dataset(x, np.array([0, 1, 2, 0, 1, 2]), 3)
        w_sep = np.eye(3) - 1.0 / 3.0
        w = w_sep * 40.0
        assert loss(w, ds) <= math.log(2) / ds.n
        rep = margin_report(w, ds, NormSpec("ew", 2.0))
        assert rep.unnormalized_min >= 0

    def test_gradient_dual_norm_sandwich(self, rng):
        # gamma * G <= ||grad||_* <= 2 R G; the solver's gamma is a certified
        # lower bound (exact margin of a feasible point) so the left
        # inequality is safe to assert with it
        count = 0
        while count < 6:
            ds = random_dataset(rng, k=3, d=3, n=8)
            sols = {}
            ok = True
            for spec in ALL_SPECS:
                sol = max_margin(ds, spec, tol=0.05, max_iters=6000)
                if not sol.separable:
                    ok = False
                    break
                sols[spec] = sol.gamma
            if not ok:
                continue
            count += 1
            for _ in range(5):
                w = 0.5 * rng.standard_normal((3, 3))
                for kind in (CROSS_ENTROPY, EXPONENTIAL):
                    g = proxy_g(w, ds, kind)
                    gr = grad(w, ds, ALL, kind)
                    for spec, gamma in sols.items():
                        star = dual_norm(gr, spec)
                        assert star <= 2 * ds.r_bound * g * (1 + 1e-12)
                        assert star >= gamma * g * (1 - 1e-12)


class TestSerialization:
    def test_dataset_roundtrip_bit_exact(self, rng, tmp_path):
        ds = random_dataset(rng)
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)
        assert back.k == ds.k
        assert back.r_bound == ds.r_bound

    def test_matrix_roundtrip_bit_exact(self, rng, tmp_path):
        w = rng.standard_normal((3, 5)) * 1e-7
        path = tmp_path / "w.txt"
        save_matrix(w, path)
        assert np.array_equal(load_matrix(path), w)

    def test_non_finite_matrix_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2 2\nnan 1\n1 2\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix(path)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.array([0, 0]), 2)

    def test_zero_features_rejected(self, tmp_path):
        reason = "a dataset needs at least one feature, got d = 0"
        with pytest.raises(ValueError, match=f"^{reason}$"):
            Dataset(np.zeros((0, 4)), np.array([0, 1, 0, 1]), 2)
        path = tmp_path / "data.txt"
        path.write_text("0 4 2\n0\n1\n0\n1\n")
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: {reason}"

    @pytest.mark.parametrize(
        "labels,dtype",
        [([0.9, 1.7], "float64"), (np.array([0.0, 1.0]), "float64"), (np.array([False, True]), "bool")],
        ids=["fractional", "integral-float", "bool"],
    )
    def test_non_integer_labels_rejected(self, labels, dtype):
        with pytest.raises(ValueError) as info:
            Dataset(np.eye(2), labels, 2)
        assert str(info.value) == f"labels must be integers, got dtype {dtype}"

    def test_r_bound_is_max_l1_column_norm(self, rng):
        ds = random_dataset(rng)
        assert ds.r_bound == np.abs(ds.x).sum(axis=0).max()


class TestDatasetConstructor:
    """``Dataset(x, y, k)`` is the one constructor: it checks its input,
    derives ``r_bound``, and is what pickling and copying go through."""

    @pytest.mark.parametrize(
        "x,y,k,reason",
        [
            ([[np.nan, 1.0]], [0, 1], 2, "matrix has non-finite entries"),
            (np.eye(2), [0, 1], 1, "a dataset needs at least two classes, got k = 1"),
            (np.zeros((0, 2)), [0, 1], 2, "a dataset needs at least one feature, got d = 0"),
            (np.eye(2), [0.0, 1.0], 2, "labels must be integers, got dtype float64"),
            (np.eye(2), [[0, 1]], 2, "y must be 1-D with one label per column of x"),
            (np.eye(2), [0, 5], 2, "labels must lie in [0, k)"),
            (np.eye(3), [0, 2, 2], 3, "every class must appear at least once; missing [1]"),
            (np.eye(3), [0, 11, 2], 12, "every class must appear at least once; missing [1, 3, 4, 5, 6, 7, 8, 9, 10]"),
            (np.eye(3), [0, 11, 2], 14,
             "every class must appear at least once; missing 11 classes, the first ten [1, 3, 4, 5, 6, 7, 8, 9, 10, 12]"),
            # the check is O(n): a set of 10**15 classes would never be built
            (np.eye(3), [0, 2, 5], 10**15,
             "every class must appear at least once; missing 999999999999997 classes, the first ten "
             "[1, 3, 4, 6, 7, 8, 9, 10, 11, 12]"),
            ([[1e308, 1.0], [1e308, 1.0]], [0, 1], 2, "r_bound = max_i ||x_i||_1 is not finite (inf)"),
        ],
        ids=["non-finite", "one-class", "no-feature", "float-labels", "y-shape", "label-range", "missing-class",
             "missing-nine", "missing-eleven", "missing-oversized-k", "overflow"],
    )
    def test_malformed_input_rejected(self, x, y, k, reason):
        with pytest.raises(ValueError) as info:
            Dataset(np.array(x), np.array(y), k)
        assert str(info.value) == reason

    def test_r_bound_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            Dataset(x=np.eye(2), y=np.array([0, 1]), k=2, r_bound=1.5)

    @pytest.mark.parametrize("rebuild", ["pickle", "copy", "deepcopy"])
    def test_rebuilds_through_the_constructor(self, rng, rebuild):
        # d = 9: numpy can sum a column of 8 or more entries in another order
        # for C-ordered x than for F-ordered x, so r_bound is taken from the
        # owned F-ordered copy, the array a rebuild starts from
        ds = random_dataset(rng, k=3, d=9, n=7)
        back = {"pickle": lambda: pickle.loads(pickle.dumps(ds)), "copy": lambda: copy.copy(ds),
                "deepcopy": lambda: copy.deepcopy(ds)}[rebuild]()
        assert back is not ds and back.k == ds.k and back.r_bound == ds.r_bound
        for a, b in ((back.x, ds.x), (back.y, ds.y)):
            assert b.tobytes() == a.tobytes() and a.dtype == b.dtype and not a.flags.writeable
        assert back.x.flags.f_contiguous and back.full.x is back.x

    def test_equality_is_identity(self, rng):
        ds = random_dataset(rng)
        assert ds == ds and ds != Dataset(ds.x, ds.y, ds.k)
        assert hash(ds) == hash(ds) and len({ds, Dataset(ds.x, ds.y, ds.k)}) == 2


# generated files are rewritten in place, so one tmp_path serves every example
_FILE_PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(k, 8))
    y = draw(st.permutations(list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))))
    x = draw(arrays(np.float64, (d, n), elements=_FINITE))
    with np.errstate(over="ignore"):
        assume(np.isfinite(np.abs(x).sum(axis=0)).all())  # Dataset rejects an overflowing column
    return Dataset(x, np.array(y), k)


def _dataset_text(ds: Dataset, path) -> str:
    save_dataset(ds, path)
    return path.read_text()


def _raw_dataset_text(x: np.ndarray, y: np.ndarray, k: int) -> str:
    """Dataset file text for arrays that ``Dataset`` may reject."""
    lines = (f"{y[i]} " + " ".join(repr(float(v)) for v in x[:, i]) for i in range(x.shape[1]))
    return f"{x.shape[0]} {x.shape[1]} {k}\n" + "".join(line + "\n" for line in lines)


def _matrix_text(w: np.ndarray, path) -> str:
    save_matrix(w, path)
    return path.read_text()


@st.composite
def corruptions(draw, text: str, value_lines_start: int, first_value_field: int):
    """A copy of a saved file with one fault: a dropped or extra field, a
    non-finite value token, or a non-blank trailing line."""
    lines = text.splitlines()
    fault = draw(st.sampled_from(["drop", "extra", "non_finite", "trailing"]))
    if fault == "trailing":
        extra = draw(st.text(alphabet="0123456789.-e x", min_size=1, max_size=8).filter(str.strip))
        return text + extra + "\n"
    if fault == "non_finite":
        at = draw(st.integers(value_lines_start, len(lines) - 1))
        fields = lines[at].split()
        fields[draw(st.integers(first_value_field, len(fields) - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    else:
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split()
        if fault == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        else:
            fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["0", "1.5", "-2e-3"])))
    lines[at] = " ".join(fields)
    return "\n".join(lines) + "\n"


class TestSerializationProperties:
    @_FILE_PROPERTY
    @given(ds=datasets())
    def test_dataset_roundtrip_bit_exact(self, tmp_path, ds):
        path = tmp_path / "data.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.x.tobytes() == ds.x.tobytes()
        assert np.array_equal(back.y, ds.y)
        assert back.k == ds.k

    @_FILE_PROPERTY
    @given(w=arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 4)), elements=_FINITE))
    def test_matrix_roundtrip_bit_exact(self, tmp_path, w):
        path = tmp_path / "w.txt"
        save_matrix(w, path)
        back = load_matrix(path)
        assert back.shape == w.shape
        assert back.tobytes() == w.tobytes()

    @_FILE_PROPERTY
    @given(data=st.data(), ds=datasets())
    def test_malformed_dataset_rejected(self, tmp_path, data, ds):
        path = tmp_path / "data.txt"
        # sample lines start after the header; field 0 is the label
        path.write_text(data.draw(corruptions(_dataset_text(ds, path), 1, 1)))
        with pytest.raises(ValueError):
            load_dataset(path)

    @_FILE_PROPERTY
    @given(data=st.data(), w=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=_FINITE))
    def test_malformed_matrix_rejected(self, tmp_path, data, w):
        path = tmp_path / "w.txt"
        path.write_text(data.draw(corruptions(_matrix_text(w, path), 1, 0)))
        with pytest.raises(ValueError):
            load_matrix(path)

    @_FILE_PROPERTY
    @given(
        data=st.data(),
        big=st.lists(st.floats(min_value=1e308, max_value=1.7976931348623157e308), min_size=2, max_size=2),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
    )
    def test_overflowing_column_rejected(self, tmp_path, data, big, signs):
        # two entries of magnitude >= 1e308 in one column: finite values, infinite L1 norm
        d, n = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
        x = data.draw(arrays(np.float64, (d, n), elements=st.floats(-1e3, 1e3)))
        col = data.draw(st.integers(0, n - 1))
        rows = data.draw(st.permutations(range(d)))[:2]
        x[rows, col] = np.multiply(big, signs)
        y = np.arange(n) % 2
        with pytest.raises(ValueError, match="not finite"):
            Dataset(x, y, 2)
        path = tmp_path / "data.txt"
        path.write_text(_raw_dataset_text(x, y, 2))
        with pytest.raises(ValueError, match="not finite"):
            load_dataset(path)

    @_FILE_PROPERTY
    @given(x=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=_FINITE))
    def test_one_class_rejected(self, tmp_path, x):
        # no pair (i, c != y_i) exists, so no margin is defined
        n = x.shape[1]
        with pytest.raises(ValueError, match="^a dataset needs at least two classes, got k = 1$"):
            Dataset(x, np.zeros(n), 1)
        path = tmp_path / "data.txt"
        path.write_text(_raw_dataset_text(x, np.zeros(n, dtype=np.int64), 1))
        with pytest.raises(ValueError) as info:
            load_dataset(path)
        assert str(info.value) == f"{path}: a dataset needs at least two classes, got k = 1"
