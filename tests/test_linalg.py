import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normdescent import (
    Dataset,
    NormSpec,
    dual_norm,
    frobenius_cosine,
    jacobi_svd,
    matrix_norm,
    newton_schulz_polar,
    save_dataset,
)
from normdescent.cli import EXIT_NONCONVERGENCE, main as cli_main

ALL_SPECS = [
    NormSpec("ew", 1.0),
    NormSpec("ew", 1.5),
    NormSpec("ew", 2.0),
    NormSpec("ew", 3.0),
    NormSpec("ew", math.inf),
    NormSpec("sch", 1.0),
    NormSpec("sch", 2.0),
    NormSpec("sch", math.inf),
]


class TestEntrywiseNorm:
    def test_pythagorean(self):
        assert matrix_norm([[3.0, -4.0]], NormSpec("ew", 2.0)) == pytest.approx(5.0, abs=1e-12)

    def test_max_magnitude(self):
        assert matrix_norm([[1.0, -2.0], [0.0, 3.0]], NormSpec("ew", math.inf)) == 3.0

    def test_sum_of_magnitudes(self):
        assert matrix_norm([[1.0, -2.0], [0.0, 3.0]], NormSpec("ew", 1.0)) == 6.0

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            matrix_norm([[1.0]], NormSpec("ew", 0.5))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_norm([[np.nan]], NormSpec("ew", 2.0))

    def test_p2_tiny_and_huge_entries(self):
        # sum(m*m) loses precision below ~1e-154, underflows to 0 below
        # ~1e-162 and overflows above ~1e154
        assert matrix_norm([[1e-200]], NormSpec("ew", 2.0)) == 1e-200
        assert matrix_norm([[3e-160, -4e-160]], NormSpec("ew", 2.0)) == pytest.approx(5e-160, rel=1e-15, abs=0.0)
        assert matrix_norm([[3e-170, -4e-170]], NormSpec("ew", 2.0)) == pytest.approx(5e-170, rel=1e-15, abs=0.0)
        assert matrix_norm([[3e300, -4e300]], NormSpec("ew", 2.0)) == pytest.approx(5e300, rel=1e-15)
        assert matrix_norm([[1e-200]], NormSpec("sch", 2.0)) == 1e-200
        assert matrix_norm([[3e300, -4e300]], NormSpec("sch", 2.0)) == pytest.approx(5e300, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=12),
        st.integers(-300, 300),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    def test_homogeneous_over_scales(self, vals, exponent, p):
        a = np.array(vals)[None, :]
        assume(np.abs(a).max() >= 1e-3)
        scale = 10.0 ** exponent
        got = matrix_norm(scale * a, NormSpec("ew", p))
        assert got == pytest.approx(scale * matrix_norm(a, NormSpec("ew", p)), rel=1e-12, abs=0.0)


class TestJacobiSvd:
    def test_already_diagonal(self):
        u, s, vt = jacobi_svd(np.diag([3.0, 2.0]))
        assert np.allclose(s, [3.0, 2.0])
        assert np.allclose(np.abs(u), np.eye(2))
        assert np.allclose(u * s @ vt, np.diag([3.0, 2.0]))

    def test_rank_one(self, rng):
        u = rng.standard_normal(5)
        v = rng.standard_normal(7)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        _, s, _ = jacobi_svd(np.outer(u, v))
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s[1:] < 1e-12)

    def test_random_5x7_reconstruction(self, rng):
        a = rng.standard_normal((5, 7))
        u, s, vt = jacobi_svd(a)
        err = np.linalg.norm(u @ np.diag(s) @ vt - a)
        assert err <= 1e-10 * max(1.0, float(np.linalg.norm(a)))

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(40):
            a = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            a *= 10.0 ** float(rng.integers(-3, 4))
            u, s, vt = jacobi_svd(a)
            scale = max(1.0, float(np.linalg.norm(a)))
            assert np.linalg.norm(u @ np.diag(s) @ vt - a) <= 1e-10 * scale
            r = s.size
            assert np.abs(u.T @ u - np.eye(r)).max() <= 1e-10
            assert np.abs(vt @ vt.T - np.eye(r)).max() <= 1e-10
            assert np.all(np.diff(s) <= 0)
            assert np.all(s >= 0)

    def test_deterministic(self, rng):
        a = rng.standard_normal((6, 4))
        for first, second in zip(jacobi_svd(a), jacobi_svd(a)):
            assert np.array_equal(first, second)

    def test_is_lapacks_thin_svd(self, rng):
        a = rng.standard_normal((6, 4))
        for ours, lapack in zip(jacobi_svd(a), np.linalg.svd(a, full_matrices=False)):
            assert ours.tobytes() == lapack.tobytes()

    def test_zero_matrix(self):
        u, s, _ = jacobi_svd(np.zeros((3, 4)))
        assert np.all(s == 0)
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_size_matrix(self, shape):
        u, s, vt = jacobi_svd(np.zeros(shape))
        assert u.shape == (shape[0], 0) and vt.shape == (0, shape[1])
        assert s.shape == (0,)

    def test_600x600_input(self, rng):
        a = rng.standard_normal((600, 600))
        u, s, vt = jacobi_svd(a)
        scale = max(1.0, float(np.linalg.norm(a)))
        assert np.linalg.norm(u @ np.diag(s) @ vt - a) <= 1e-10 * scale
        assert np.abs(u.T @ u - np.eye(600)).max() <= 1e-10
        assert np.abs(vt @ vt.T - np.eye(600)).max() <= 1e-10

    def test_lapack_failure_propagates(self, rng, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(np.linalg.LinAlgError):
            jacobi_svd(rng.standard_normal((8, 8)))

        # through the CLI: non-convergence exit code, one error line, no traceback
        data = tmp_path / "d.txt"
        save_dataset(Dataset(np.array([[1.0, -1.0], [0.5, 0.2]]), np.array([0, 1]), 2), data)
        rc = cli_main(["margin", "--dataset", str(data), "--norm", "sch:inf", "--out", str(tmp_path / "w.txt")])
        err = capsys.readouterr().err
        assert rc == EXIT_NONCONVERGENCE
        assert err.startswith("error: SVD did not converge")
        assert "Traceback" not in err


class TestSchattenNorm:
    def test_nuclear_of_diagonal(self):
        assert matrix_norm(np.diag([3.0, 4.0]), NormSpec("sch", 1.0)) == pytest.approx(7.0, abs=1e-10)

    def test_spectral_of_diagonal(self):
        assert matrix_norm(np.diag([3.0, 4.0]), NormSpec("sch", math.inf)) == pytest.approx(4.0, abs=1e-10)

    def test_frobenius_identity(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            assert abs(matrix_norm(a, NormSpec("sch", 2.0)) - matrix_norm(a, NormSpec("ew", 2.0))) <= 1e-10


class TestDualNorm:
    def test_linf_dual_is_l1(self):
        a = [[1.0, -2.0], [0.0, 3.0]]
        assert dual_norm(a, NormSpec("ew", math.inf)) == 6.0

    def test_spectral_dual_is_nuclear(self):
        a = np.diag([3.0, 4.0])
        assert dual_norm(a, NormSpec("sch", math.inf)) == pytest.approx(7.0, abs=1e-10)

    def test_random_search_oracle_entrywise_3(self, rng):
        # dual of ew:3 is the ew:1.5 norm; a random search over unit-3-norm
        # directions must approach it from below
        spec = NormSpec("ew", 3.0)
        a = rng.standard_normal((2, 3))
        target = dual_norm(a, spec)
        best = 0.0
        for _ in range(100):
            b = rng.standard_normal((1000, 2, 3))
            norms = np.sum(np.abs(b) ** 3.0, axis=(1, 2)) ** (1.0 / 3.0)
            b /= norms[:, None, None]
            best = max(best, float(np.max(np.sum(a[None] * b, axis=(1, 2)))))
        assert best <= target + 1e-9
        assert best >= 0.98 * target

    def test_exponent_pairing(self):
        assert NormSpec("ew", 3.0).q == pytest.approx(1.5)
        assert NormSpec("ew", 1.0).q == math.inf
        assert NormSpec("sch", math.inf).q == 1.0


class TestNewtonSchulz:
    def test_scaled_identity(self):
        out = newton_schulz_polar(5.0 * np.eye(3), iters=60, tol=1e-10)
        assert np.abs(out - np.eye(3)).max() <= 1e-8

    def test_positive_diagonal(self):
        out = newton_schulz_polar(np.diag([3.0, 2.0]), iters=60, tol=1e-10)
        assert np.abs(out - np.eye(2)).max() <= 1e-8

    def test_matches_svd_polar_factor(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 6))
            u, _, vt = jacobi_svd(a)
            exact = u @ vt
            approx = newton_schulz_polar(a, iters=80, tol=1e-8)
            assert np.linalg.norm(approx - exact) <= 1e-6

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            newton_schulz_polar(np.zeros((2, 2)))


class TestFrobeniusCosine:
    def test_self(self, rng):
        a = rng.standard_normal((3, 3))
        assert frobenius_cosine(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self, rng):
        a = rng.standard_normal((3, 3))
        assert frobenius_cosine(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_under_trace_inner_product(self):
        assert frobenius_cosine(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]) == 0.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            frobenius_cosine(np.zeros((2, 2)), np.eye(2))

    def test_normal_range_is_the_direct_quotient(self, rng):
        # the formula every pinned cos_wstar / cos_wbar cell was written with
        for _ in range(20):
            a, b = rng.standard_normal((2, 4, 3))
            fro = NormSpec("ew", 2.0)
            direct = float(np.sum(a * b)) / (matrix_norm(a, fro) * matrix_norm(b, fro))
            assert frobenius_cosine(a, b) == min(1.0, max(-1.0, direct))

    def test_overflowing_inner_product(self):
        a = [[1e300, 2e300]]
        assert frobenius_cosine(a, a) == pytest.approx(1.0, rel=0.0, abs=1e-15)
        assert frobenius_cosine(a, [[-2e300, -4e300]]) == pytest.approx(-1.0, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-150, 1e-200, 1e-300, 1e300])
    def test_scale_invariant_where_the_norm_product_leaves_the_normal_range(self, rng, scale):
        a, b = rng.standard_normal((2, 4, 3))
        assert frobenius_cosine(scale * a, scale * b) == pytest.approx(frobenius_cosine(a, b), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-300, 1e-320, 5e-324])
    def test_subnormal_reference_keeps_full_precision(self, rng, scale):
        # equal-magnitude entries stay exact at any scale, so the cosine must too
        w = rng.standard_normal((4, 3))
        signs = np.where(rng.standard_normal((4, 3)) < 0.0, -1.0, 1.0)
        assert frobenius_cosine(w, scale * signs) == pytest.approx(frobenius_cosine(w, signs), rel=1e-15)


class TestNormSpec:
    @pytest.mark.parametrize("text", ["ew:inf", "ew:2", "ew:1.5", "sch:inf", "sch:1"])
    def test_parse_roundtrip(self, text):
        assert str(NormSpec.parse(text)) == text

    @pytest.mark.parametrize("family", ["ew", "sch"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf, 1.23456789, 1234567.0, 1e22])
    def test_one_spelling_round_trips(self, family, p):
        spec = NormSpec(family, p)
        assert NormSpec.parse(str(spec)) == spec
        assert NormSpec(spec.family, spec.p) == spec
        assert str(spec).startswith(f"{family}:")

    @pytest.mark.parametrize("family", ["entrywise", "schatten", "EW", "l"])
    def test_only_the_short_family_names_exist(self, family):
        with pytest.raises(ValueError, match=f"^unknown norm family: '{family}'$"):
            NormSpec(family, 2.0)
        with pytest.raises(ValueError, match="^bad norm spec"):
            NormSpec.parse(f"{family}:2")

    def test_parse_rejects_garbage(self):
        for bad in ["l2", "ew:0.5", "spectral", "ew", "sch:-1"]:
            with pytest.raises(ValueError):
                NormSpec.parse(bad)

    @pytest.mark.parametrize("text", ["ew:1e400", "sch:-1e400", "ew:Infinity", "sch:INF", "ew:nan"])
    def test_parse_takes_only_the_literal_inf_as_infinity(self, text):
        assert NormSpec.parse("ew:inf").p == math.inf
        with pytest.raises(ValueError, match="^bad norm spec"):
            NormSpec.parse(text)


class TestNormFamilyProperties:
    def test_norm_dominance(self, rng):
        for _ in range(50):
            a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            lo = matrix_norm(a, NormSpec("ew", math.inf))
            hi = matrix_norm(a, NormSpec("ew", 1.0))
            for spec in ALL_SPECS:
                v = matrix_norm(a, spec)
                assert lo <= v * (1 + 1e-12) + 1e-15
                assert v <= hi * (1 + 1e-12) + 1e-15

    def test_schatten_monotonicity(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 5))
            sinf = matrix_norm(a, NormSpec("sch", math.inf))
            s1 = matrix_norm(a, NormSpec("sch", 1.0))
            for p in (1.3, 2.0, 3.0, 7.0):
                sp = matrix_norm(a, NormSpec("sch", p))
                assert sinf <= sp * (1 + 1e-12)
                assert sp <= s1 * (1 + 1e-12)

    def test_generalized_cauchy_schwarz(self, rng):
        for _ in range(30):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((3, 4))
            inner = abs(float(np.sum(a * b)))
            for spec in ALL_SPECS:
                bound = matrix_norm(a, spec) * dual_norm(b, spec)
                assert inner <= bound * (1 + 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=4),
        st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
    )
    def test_entrywise_scaling_and_triangle(self, vals, p):
        a = np.array(vals).reshape(2, 2)
        spec = NormSpec("ew", p)
        assert matrix_norm(2.0 * a, spec) == pytest.approx(2.0 * matrix_norm(a, spec), rel=1e-12, abs=1e-12)
        b = a[::-1].copy()
        lhs = matrix_norm(a + b, spec)
        rhs = matrix_norm(a, spec) + matrix_norm(b, spec)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12
