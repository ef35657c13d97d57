import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normdescent import (
    Dataset,
    NormSpec,
    dual_norm,
    grad,
    jacobi_svd,
    matrix_norm,
    newton_schulz_polar,
    steepest_map,
)
from normdescent.linalg import RANK_CUTOFF
from tests.test_linalg import ALL_SPECS


class TestClosedForms:
    def test_sign_direction(self):
        g = np.array([[2.0, -3.0], [0.0, 1.0]])
        out = steepest_map(g, NormSpec("ew", math.inf))
        assert np.array_equal(out, [[1.0, -1.0], [0.0, 1.0]])

    def test_frobenius_normalization(self, rng):
        g = rng.standard_normal((3, 4))
        out = steepest_map(g, NormSpec("ew", 2.0))
        assert np.allclose(out, g / np.linalg.norm(g), atol=1e-14)

    def test_spectral_of_positive_diagonal(self):
        out = steepest_map(np.diag([3.0, 2.0]), NormSpec("sch", math.inf))
        assert np.abs(out - np.eye(2)).max() <= 1e-12

    def test_entrywise_one_puts_mass_on_first_max(self):
        g = np.array([[1.0, -3.0], [3.0, 0.5]])
        out = steepest_map(g, NormSpec("ew", 1.0))
        expect = np.zeros((2, 2))
        expect[0, 1] = -1.0  # row-major first |entry| = 3
        assert np.array_equal(out, expect)

    def test_zero_maps_to_zero(self):
        for spec in ALL_SPECS:
            assert not np.any(steepest_map(np.zeros((3, 2)), spec))


    def test_tiny_and_huge_frobenius_maps(self):
        spec = NormSpec("ew", 2.0)
        assert np.array_equal(steepest_map([[1e-200, 0.0]], spec), [[1.0, 0.0]])
        assert np.array_equal(steepest_map([[1e300, 0.0]], spec), [[1.0, 0.0]])
        out = steepest_map([[3e300, -4e300]], spec)
        assert np.abs(out - [[0.6, -0.8]]).max() <= 1e-15


@st.composite
def ew2_signals(draw):
    """Nonzero matrices with signed zeros, at unit scale or at a scale where the
    sum of squares underflows or overflows (the scaled path of the 2-norm), or
    spanning the whole float range, where some quotients underflow to zero."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    zero = st.sampled_from([0.0, -0.0])
    if draw(st.booleans()):
        unit = draw(arrays(np.float64, shape, elements=st.one_of(st.floats(-1.0, 1.0), zero)))
        g = unit * draw(st.sampled_from([1.0, 1e-160, 1e-300, 1e160, 1e300]))
    else:
        g = draw(arrays(np.float64, shape, elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False), zero)))
    return g


class TestFrobeniusClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(g=ew2_signals())
    @example(g=np.array([[-0.0, 1.0]]))
    @example(g=np.array([[1e-200, -0.0]]))
    @example(g=np.array([[1e300, -1e-30]]))  # -1e-30 / 1e300 underflows to -0.0
    @example(g=np.array([[3e300, -4e300]]))
    def test_map_is_the_general_form_bit_for_bit(self, g):
        out = steepest_map(g, NormSpec("ew", 2.0))
        if not np.count_nonzero(g):
            assert not np.count_nonzero(out)
            return
        general = np.sign(g) * (np.abs(g) / matrix_norm(g, NormSpec("ew", 2.0))) ** 1.0
        assert np.array_equal(out.view(np.int64), general.view(np.int64))


def _reference_schatten_map(g, p, signs):
    """The Schatten map built from LAPACK's factors after flipping the sign
    of each pair (u_j, v_j) where ``signs`` is -1."""
    u, sigma, vt = jacobi_svd(g)
    u, vt = u * signs, vt * signs[:, None]
    rank = int(np.sum(sigma > RANK_CUTOFF * sigma[0]))
    if p == 1.0:
        return np.outer(u[:, 0], vt[0])
    u, s, vt = u[:, :rank], sigma[:rank], vt[:rank]
    if math.isinf(p):
        return u @ vt
    q = p / (p - 1.0)
    w = (s / float(s[0])) ** (q - 1.0)
    w /= float(np.sum(w ** p)) ** (1.0 / p)
    return (u * w) @ vt


class TestSignFreeSchattenMap:
    """Each term u_j v_j^T is unchanged when the pair's signs flip, so the
    map does not depend on the signs LAPACK picks: it must equal, byte for
    byte, the map built from the same factors under random paired sign flips."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_byte_equal_to_signed_svd_reference(self, p, rng):
        spec = NormSpec("sch", p)
        for _ in range(150):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            random = rng.standard_normal(shape)
            rank_one = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
            for g in (random, rank_one):
                for scale in (1.0, 1e-100, 1e100):
                    signs = rng.choice([-1.0, 1.0], size=min(shape))
                    got = steepest_map(scale * g, spec)
                    want = _reference_schatten_map(scale * g, p, signs)
                    assert got.tobytes() == want.tobytes(), (shape, scale, signs)


class TestDualityAttainment:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_unit_norm_and_duality(self, spec, rng):
        for _ in range(25):
            g = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            phi = steepest_map(g, spec)
            dual = dual_norm(g, spec)
            assert abs(matrix_norm(phi, spec) - 1.0) <= 1e-8
            assert abs(float(np.sum(g * phi)) - dual) <= 1e-8 * max(1.0, dual)

    def test_scale_invariance_exact_for_pow2(self, rng):
        # scaling by powers of two leaves every float mantissa unchanged, so
        # the map must be bit-identical
        g = rng.standard_normal((4, 3))
        for spec in ALL_SPECS:
            base = steepest_map(g, spec)
            for c in (0.5, 4.0):
                assert np.array_equal(steepest_map(c * g, spec), base), str(spec)

    def test_scale_invariance_general(self, rng):
        g = rng.standard_normal((4, 3))
        for spec in ALL_SPECS:
            base = steepest_map(g, spec)
            out = steepest_map(3.7 * g, spec)
            assert np.abs(out - base).max() <= 1e-12

    def test_p2_family_agreement(self, rng):
        for _ in range(10):
            g = rng.standard_normal((4, 5))
            a = steepest_map(g, NormSpec("ew", 2.0))
            b = steepest_map(g, NormSpec("sch", 2.0))
            assert np.linalg.norm(a - b) <= 1e-8

    def test_newton_schulz_path_close_to_svd_path(self, rng):
        spec = NormSpec("sch", math.inf)
        for _ in range(5):
            g = rng.standard_normal((4, 6))
            a = steepest_map(g, spec)
            b = newton_schulz_polar(g)
            assert np.linalg.norm(a - b) <= 1e-6


def single_sample_spectral_equals_frobenius(w, ds, i: int):
    """Spectral and Frobenius maps of one per-sample gradient.

    Per-sample gradients of the linear classifier are rank one, so the two
    maps coincide; this returns both so the caller can assert
    ||a - b||_F <= 1e-6. Raises on a zero gradient.
    """
    g = grad(w, ds, np.array([i]), kind="cross_entropy")
    if not np.any(g):
        raise ValueError(f"per-sample gradient for sample {i} is zero")
    a = steepest_map(-g, NormSpec("sch", math.inf))
    b = steepest_map(-g, NormSpec("ew", 2.0))
    return a, b


class TestSingleSampleEquivalence:
    def _dataset(self, rng, k=3, d=4, n=6):
        y = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        x = rng.standard_normal((d, n))
        return Dataset(x, y, k)

    def test_closed_form_at_zero(self):
        # W = 0, k = 3, x = e1: both maps give normalized (e_y - 1/3) e1^T
        x = np.zeros((4, 3))
        x[0, 0] = 1.0
        x[1, 1] = 1.0
        x[2, 2] = 1.0
        ds = Dataset(x, np.array([0, 1, 2]), 3)
        a, b = single_sample_spectral_equals_frobenius(np.zeros((3, 4)), ds, 0)
        u = np.array([1.0, 0.0, 0.0]) - 1.0 / 3.0
        expect = np.outer(u / np.linalg.norm(u), x[:, 0])
        assert np.abs(a - expect).max() <= 1e-10
        assert np.abs(b - expect).max() <= 1e-10

    def test_random_draws(self, rng):
        for _ in range(100):
            ds = self._dataset(rng)
            w = rng.standard_normal((3, 4))
            i = int(rng.integers(0, ds.n))
            a, b = single_sample_spectral_equals_frobenius(w, ds, i)
            assert np.linalg.norm(a - b) <= 1e-6

    def test_zero_gradient_rejected(self, rng):
        # same point under two labels makes the full gradient vanish, but a
        # per-sample gradient is zero only for an exactly one-hot softmax;
        # easiest to hit it with a huge margin that underflows entirely
        x = np.eye(2)
        ds = Dataset(x, np.array([0, 1]), 2)
        w = np.array([[2000.0, -2000.0], [-2000.0, 2000.0]])
        with pytest.raises(ValueError):
            single_sample_spectral_equals_frobenius(w, ds, 0)
