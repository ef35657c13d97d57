import hashlib
import math

import numpy as np
import pytest

from normdescent import (
    BIAS_NORMALIZED,
    BIAS_SIGN,
    Dataset,
    GaussianSpec,
    MaxMarginNonConvergence,
    NormSpec,
    OptimizerConfig,
    Schedule,
    bias_matrix,
    canonical_update_matrix,
    frobenius_cosine,
    gen_gaussian,
    margin_report,
    matrix_norm,
    max_margin,
    run,
    save_dataset,
    steepest_map,
)
from normdescent import reference
from normdescent.cli import EXIT_NONCONVERGENCE, main as cli_main
from normdescent.linalg import as_matrix
from normdescent.model import pair_gaps
from tests.conftest import random_dataset

EW2 = NormSpec("entrywise", 2.0)
EWINF = NormSpec("entrywise", math.inf)


def two_class_2d_instance(rng):
    """Random separable k=2, d=2 instance built from a planted direction."""
    g = rng.standard_normal(2)
    g /= np.linalg.norm(g)
    xs, ys = [], []
    for _ in range(6):
        v = rng.standard_normal(2)
        side = 1.0 if v @ g >= 0 else -1.0
        v += 0.4 * side * g  # push away from the boundary
        xs.append(v)
        ys.append(0 if side > 0 else 1)
    ys[0] = 0
    ys[1] = 1
    xs[0] = g * 1.0
    xs[1] = -g * 1.0
    return Dataset.from_arrays(np.array(xs).T, np.array(ys), 2)


def grid_margin_oracle_entrywise(ds, p, pitch=0.01):
    """Dense grid search over the unit entry-wise-p ball of 2x2 matrices.

    Pair margins depend only on the row difference (A, B) = row0 - row1, so
    the 4-d scan factorizes exactly: a difference is feasible iff the
    minimum-norm grid representative with that difference fits in the ball.
    The result equals the literal 201^4 scan at the same pitch.
    """
    assert ds.k == 2 and ds.d == 2
    axis = np.round(np.arange(-1.0, 1.0 + pitch / 2, pitch), 10)
    diffs = np.round(np.arange(-2.0, 2.0 + pitch / 2, pitch), 10)
    if math.isinf(p):
        feas_1d = np.zeros(diffs.size)  # max-norm ball: every grid pair fits
    else:
        # minpow[j] = min over w of |w|^p + |w - diff_j|^p with both on the grid
        pair = np.abs(axis[:, None]) ** p + np.abs(axis[:, None] - diffs[None, :]) ** p
        valid = (axis[:, None] - diffs[None, :] >= -1.0 - 1e-12) & (
            axis[:, None] - diffs[None, :] <= 1.0 + 1e-12
        )
        pair = np.where(valid, pair, np.inf)
        feas_1d = pair.min(axis=0)
    feasible = feas_1d[:, None] + feas_1d[None, :] <= 1.0 + 1e-12

    sgn = np.where(ds.y == 0, 1.0, -1.0)
    best = -np.inf
    margins = np.full((diffs.size, diffs.size), np.inf)
    for i in range(ds.n):
        m_i = sgn[i] * (diffs[:, None] * ds.x[0, i] + diffs[None, :] * ds.x[1, i])
        margins = np.minimum(margins, m_i)
    margins[~feasible] = -np.inf
    return float(margins.max())


def literal_grid_scan_entrywise(ds, p, pitch):
    """Unfactored 4-d scan, used to validate the factorized oracle."""
    axis = np.round(np.arange(-1.0, 1.0 + pitch / 2, pitch), 10)
    sgn = np.where(ds.y == 0, 1.0, -1.0)
    best = -np.inf
    for w00 in axis:
        for w01 in axis:
            w0p = np.abs(w00) ** p + np.abs(w01) ** p if not math.isinf(p) else max(abs(w00), abs(w01))
            a = w00 - axis  # over w10
            for w11 in axis:
                b = w01 - w11
                if math.isinf(p):
                    norm_ok = np.maximum(np.abs(axis), max(abs(w11), w0p)) <= 1 + 1e-12
                else:
                    norm_ok = w0p + np.abs(axis) ** p + abs(w11) ** p <= 1 + 1e-12
                m = np.full(axis.size, np.inf)
                for i in range(ds.n):
                    m = np.minimum(m, sgn[i] * (a * ds.x[0, i] + b * ds.x[1, i]))
                m[~norm_ok] = -np.inf
                best = max(best, float(m.max()))
    return best


class TestMaxMargin:
    def test_one_dimensional_hand_solution(self):
        ds = Dataset.from_arrays(np.array([[1.0, -1.0]]), np.array([0, 1]), 2)
        sol = max_margin(ds, EWINF, tol=1e-3, max_iters=20000)
        assert sol.separable
        assert sol.gamma == pytest.approx(2.0, abs=2e-3)
        assert abs(matrix_norm(sol.w_star, EWINF) - 1.0) <= 1e-6
        # optimal entries are +/-1 up to sign structure: rows differ by ~2
        assert (sol.w_star[0] - sol.w_star[1])[0] == pytest.approx(2.0, abs=5e-3)

    def test_margin_scales_linearly_with_data(self, rng):
        ds = two_class_2d_instance(rng)
        doubled = Dataset.from_arrays(2.0 * ds.x, ds.y, 2)
        a = max_margin(ds, EW2, tol=1e-3, max_iters=30000)
        b = max_margin(doubled, EW2, tol=1e-3, max_iters=30000)
        assert b.gamma == pytest.approx(2.0 * a.gamma, rel=1e-2)
        assert frobenius_cosine(a.w_star, b.w_star) >= 1.0 - 1e-3

    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_grid_search_oracle(self, rng, p):
        ds = two_class_2d_instance(rng)
        spec = NormSpec("entrywise", p)
        sol = max_margin(ds, spec, tol=1e-3, max_iters=30000)
        oracle = grid_margin_oracle_entrywise(ds, p, pitch=0.01)
        assert sol.gamma == pytest.approx(oracle, abs=0.02)

    def test_factorized_oracle_matches_literal_scan(self, rng):
        ds = two_class_2d_instance(rng)
        for p in (2.0, math.inf):
            fast = grid_margin_oracle_entrywise(ds, p, pitch=0.1)
            slow = literal_grid_scan_entrywise(ds, p, pitch=0.1)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_monotone_stage_margins(self, rng):
        ds = two_class_2d_instance(rng)
        sol = max_margin(ds, EW2, tol=1e-3, max_iters=30000)
        stages = sol.stage_margins
        assert all(b >= a for a, b in zip(stages, stages[1:]))

    def test_reported_gamma_is_exact_margin_of_w_star(self, rng):
        ds = two_class_2d_instance(rng)
        sol = max_margin(ds, EW2, tol=1e-3, max_iters=30000)
        rep = margin_report(sol.w_star, ds, EW2)
        assert rep.unnormalized_min == pytest.approx(sol.gamma, abs=1e-10)
        assert abs(rep.weight_norm - 1.0) <= 1e-6
        assert sol.certificate_gap <= 10 * 1e-3

    def test_nonseparable_flagged_not_raised(self):
        x = np.array([[1.0, 1.0], [0.5, 0.5]])
        ds = Dataset.from_arrays(x, np.array([0, 1]), 2)
        sol = max_margin(ds, EW2, tol=1e-2, max_iters=5000)
        assert not sol.separable
        assert sol.gamma <= 1e-2


def scatter_softmin_grad(gaps, ds, tau):
    """The softmin gradient assembled sample by sample: each sample's total
    weight is scattered into its target row, then the weighted samples are
    subtracted from every off-target row."""
    a = -gaps / tau
    p = np.exp(a - float(a.max()))
    p /= float(p.sum())
    g = np.zeros((ds.k, ds.d))
    np.add.at(g, ds.y, p.sum(axis=0)[:, None] * ds.x.T)
    return g - p @ ds.x.T


def softmin(w, ds, tau):
    """f(W) = -tau log sum_(i, c != y_i) exp(-gap_ic / tau), shifted by its max."""
    a = -pair_gaps(w, ds) / tau
    top = float(a.max())
    return -tau * (top + math.log(float(np.exp(a - top).sum())))


class TestSoftminGrad:
    @pytest.mark.parametrize("tau", [1.0, 0.09, 0.0081])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_finite_differences_and_the_scatter_formula(self, seed, tau):
        rng = np.random.default_rng([seed, 31])
        ds = random_dataset(rng)  # k in 2..5, n <= 24
        w = rng.standard_normal((ds.k, ds.d))
        gaps = pair_gaps(w, ds)
        g = reference._softmin_grad(gaps, ds, tau)
        np.testing.assert_allclose(g, scatter_softmin_grad(gaps, ds, tau), rtol=1e-12)
        h = 1e-6
        fd = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            e = np.zeros_like(w)
            e[idx] = h
            fd[idx] = (softmin(w + e, ds, tau) - softmin(w - e, ds, tau)) / (2.0 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


# norm -> (gamma, iterations_used, certificate_gap, stage_margins, sha256 of
# w_star.tobytes()) at tol=1e-2, max_iters=20000 on the pinned instance;
# recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (see test_reproducibility)
PINNED_SOLVES = {
    # ew:1 and sch:1 pin the tie-breaking maps: the first maximal entry and
    # the leading singular dyad
    "ew:1": (
        0.1986024290574011,
        691,
        0.0013389083207342029,
        (0.0, 0.1381279259021963, 0.1800787309279904, 0.1986024290574011),
        "19c393148b2a3cf6ca2a65f0a4db1ff092ec3cf27744ffed3cffbf94aef9cb2c",
    ),
    "sch:1": (
        0.29384423059894976,
        3382,
        0.001349796966172991,
        (-0.07361532501516987, 0.2035532489842459, 0.2768223467066398, 0.2938442305989498),
        "f9311fa11845d55126d0eb1eee88f91986f8cd88e98ca6d926a6b30b5ab1a61f",
    ),
    "ew:2": (
        0.40191196525515765,
        766,
        0.0013484059982670437,
        (0.13895635857974556, 0.35097306017449204, 0.3695512080954128, 0.4019119652551577),
        "fa7d4c8aef3989e31f134a413d4b6b4a462014885b8a4f40cd45cb2dffbaaebd",
    ),
    "ew:inf": (
        0.7954061159116637,
        7965,
        0.0013120008831474163,
        (0.663090095758391, 0.7022014832016671, 0.7778380518176331, 0.7954061159116637),
        "0e8fd4ea22b9eb4fc7cd787d615008f1e61d28538ede27450eee56a7cd12a6de",
    ),
    "sch:inf": (
        0.462892416612148,
        499,
        0.0013485940263393919,
        (0.4305430214499711, 0.43864666749066267, 0.44978441046697754, 0.462892416612148),
        "bd522229f731430ec9042e62bb538c257829b9cb3463b06858388e4ed22e2259",
    ),
}


@pytest.fixture(scope="module")
def pinned_instance():
    return gen_gaussian(GaussianSpec(k=3, per_class=4, d=3, sigma=0.1, seed=5))


class TestMaxMarginPinned:
    @pytest.mark.parametrize("norm", sorted(PINNED_SOLVES))
    def test_outputs_pinned_and_one_pair_gap_pass_per_iterate(self, pinned_instance, norm, monkeypatch):
        calls = []
        real = reference.pair_gaps

        def counted(w, ds):
            calls.append(1)
            return real(w, ds)

        monkeypatch.setattr(reference, "pair_gaps", counted)
        sol = max_margin(pinned_instance, NormSpec.parse(norm), tol=1e-2, max_iters=20000)
        got = (
            sol.gamma,
            sol.iterations_used,
            sol.certificate_gap,
            sol.stage_margins,
            hashlib.sha256(sol.w_star.tobytes()).hexdigest(),
        )
        assert got == PINNED_SOLVES[norm]
        # the zero start, then once after each step
        assert len(calls) == sol.iterations_used + 1


class TestNonConvergence:
    MESSAGE = "max_margin used 50 iterations but the certificate gap 1.220e+00 exceeds 10*tol = 1.000e-03"

    def test_exhausted_budget_raises_with_iterations_and_gap(self, pinned_instance):
        with pytest.raises(MaxMarginNonConvergence) as info:
            max_margin(pinned_instance, EW2, tol=1e-4, max_iters=50)
        assert str(info.value) == self.MESSAGE
        assert info.value.iterations == 50
        assert info.value.gap > 10 * 1e-4
        assert info.value.tol == 1e-4

    def test_cli_exits_4_with_error_line(self, pinned_instance, tmp_path, capsys):
        data = tmp_path / "gauss.txt"
        save_dataset(pinned_instance, data)
        rc = cli_main(["margin", "--dataset", str(data), "--norm", "ew:2", "--out", str(tmp_path / "w.txt"),
                       "--tol", "1e-4", "--max-iters", "50"])
        captured = capsys.readouterr()
        assert rc == EXIT_NONCONVERGENCE
        assert captured.err == f"error: {self.MESSAGE}\n"
        assert not (tmp_path / "w.txt").exists()


class TestBiasMatrix:
    def test_sign_two_class_single_samples(self):
        x = np.diag([3.0, 0.25])  # scales must not matter
        ds = Dataset.from_arrays(x, np.array([0, 1]), 2)
        out = bias_matrix(ds, BIAS_SIGN)
        assert np.array_equal(out, [[1.0, -1.0], [-1.0, 1.0]])

    def test_duplication_doubles(self, rng):
        x = np.abs(rng.standard_normal((3, 6))) + 0.1
        y = np.array([0, 1, 2, 0, 1, 2])
        ds = Dataset.from_arrays(x, y, 3)
        ds2 = Dataset.from_arrays(np.hstack([x, x]), np.concatenate([y, y]), 3)
        for kind in (BIAS_SIGN, BIAS_NORMALIZED):
            a = bias_matrix(ds, kind)
            b = bias_matrix(ds2, kind)
            assert np.allclose(b, 2.0 * a, atol=1e-12)

    def test_normalized_two_class_closed_form(self):
        x = np.diag([3.0, 0.25])
        ds = Dataset.from_arrays(x, np.array([0, 1]), 2)
        out = bias_matrix(ds, BIAS_NORMALIZED)
        expect = np.array([[1.0, -1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert np.abs(out - expect).max() <= 1e-12

    def test_zero_sample_rejected_for_normalized(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        ds = Dataset.from_arrays(x, np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="sample 1 is zero"):
            bias_matrix(ds, BIAS_NORMALIZED)
        with pytest.raises(ValueError, match="sample 1 is zero"):
            canonical_update_matrix(ds, 1, BIAS_NORMALIZED)

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_normalized_terms_do_not_depend_on_the_sample_scale(self, scale):
        # the plain 2-norm of (1e300, 0) overflows and that of (1e-200, 0)
        # underflows to 0; the max-scaled fallback gives the unit vector
        ds = Dataset.from_arrays(np.diag([scale, 1.0]), np.array([0, 1]), 2)
        unit = Dataset.from_arrays(np.eye(2), np.array([0, 1]), 2)
        assert np.array_equal(canonical_update_matrix(ds, 0, BIAS_NORMALIZED),
                              canonical_update_matrix(unit, 0, BIAS_NORMALIZED))
        assert np.array_equal(bias_matrix(ds, BIAS_NORMALIZED), bias_matrix(unit, BIAS_NORMALIZED))


def check_column_symmetry(w, rel_tol: float = 1e-9) -> bool:
    """True iff every column has (near) equal off-diagonal entries.

    The tolerance scales as rel_tol * (1 + max|entry|). Columns beyond the
    square part have no diagonal entry and must be entirely uniform.
    """
    wm = as_matrix(w)
    rows, cols = wm.shape
    scale = rel_tol * (1.0 + float(np.abs(wm).max(initial=0.0)))
    for j in range(cols):
        col = wm[:, j]
        if j < rows:
            off = np.delete(col, j)
        else:
            off = col
        if off.size >= 2 and float(off.max() - off.min()) > scale:
            return False
    return True


class TestColumnSymmetry:
    def test_zero_matrix(self):
        assert check_column_symmetry(np.zeros((3, 3)))

    def test_symmetric_column(self):
        w = np.zeros((3, 3))
        w[:, 0] = [5.0, -1.0, -1.0]
        assert check_column_symmetry(w)

    def test_asymmetric_column(self):
        w = np.zeros((3, 3))
        w[:, 0] = [5.0, -1.0, -2.0]
        assert not check_column_symmetry(w)


class TestPerSampleInvariance:
    def _skewed(self):
        x = np.zeros((3, 5))
        alphas = [(0, 1.3), (1, 0.4), (2, 2.2), (0, 0.9), (1, 1.7)]
        y = np.zeros(5, dtype=np.int64)
        for i, (c, a) in enumerate(alphas):
            x[c, i] = a
            y[i] = c
        return Dataset.from_arrays(x, y, 3)

    def test_normalized_updates_follow_canonical_matrices(self):
        # every per-sample Normalized-SGD update from w0 = 0 equals the
        # closed-form class matrix, independent of scale and weight size
        ds = self._skewed()
        cfg = OptimizerConfig(
            batch_size=1,
            momentum_on=False,
            beta1=0.0,
            vr_on=False,
            schedule=Schedule(c=0.5, a=0.5, eta0=0.5),
            epochs=40,
            seed=9,
            norm=EW2,
        )
        canon = {c: canonical_update_matrix(ds, int(np.nonzero(ds.y == c)[0][0]), BIAS_NORMALIZED) for c in range(3)}

        def hook(t, w, h, eta, delta):
            assert check_column_symmetry(w)
            assert np.array_equal(delta, steepest_map(h, EW2))
            if np.any(h):
                col = int(np.argmax(np.abs(h).sum(axis=0)))
                assert np.abs(delta + canon[col]).max() <= 1e-9

        run(cfg, ds, np.zeros((3, 3)), metrics_hook=hook)

    def test_canonical_matrix_values(self):
        ds = self._skewed()
        m = canonical_update_matrix(ds, 0, BIAS_NORMALIZED)
        u = np.array([1.0, 0.0, 0.0]) - 1.0 / 3.0
        expect = np.outer(u / np.linalg.norm(u), [1.0, 0.0, 0.0])
        assert np.abs(m - expect).max() <= 1e-15
        msign = canonical_update_matrix(ds, 0, BIAS_SIGN)
        assert np.array_equal(msign, np.outer([1.0, -1.0, -1.0], [1.0, 0.0, 0.0]))
