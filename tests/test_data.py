import numpy as np
import pytest

from normdescent import GaussianSpec, SkewedSpec, gen_gaussian, gen_skewed


# GaussianSpec fields and the attempt whose draw gen_gaussian accepts
DRAWS = [
    (10, 20, 5, 0.1, 12345, 0),
    (4, 1, 3, 0.1, 0, 0),
    (3, 4, 2, 0.05, 7, 0),
    (5, 3, 6, 0.0, 99, 0),
    # the separability probe rejects the first draw(s): these pin its verdicts
    (3, 4, 2, 0.3, 3, 1),
    (3, 4, 2, 0.3, 1, 3),  # attempt 1's probe gamma is 5.7e-4, just under the 1e-3 bar
]


class TestGaussian:
    def test_noiseless_limit_is_class_means(self):
        spec = GaussianSpec(k=4, per_class=3, d=6, sigma=0.0, seed=7)
        ds = gen_gaussian(spec)
        for c in range(4):
            block = ds.x[:, ds.y == c]
            assert np.all(block == block[:, :1])
            assert np.linalg.norm(block[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_reference_configuration_size(self):
        spec = GaussianSpec(k=10, per_class=20, d=5, sigma=0.1, seed=12345)
        ds = gen_gaussian(spec)
        assert ds.n == 200
        assert ds.d == 5
        assert ds.k == 10

    def test_deterministic(self):
        spec = GaussianSpec(k=3, per_class=4, d=3, sigma=0.1, seed=99)
        a = gen_gaussian(spec)
        b = gen_gaussian(spec)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("k,per_class,d,sigma,seed,attempt", DRAWS, ids=["-".join(map(str, r[:5])) for r in DRAWS])
    def test_matches_per_class_draws(self, k, per_class, d, sigma, seed, attempt):
        # reference: the accepted attempt's stream, one (d, per_class) noise
        # draw per class into a C-ordered (d, n) array
        rng = np.random.default_rng([seed, attempt])
        means = rng.standard_normal((k, d))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        x = np.zeros((d, k * per_class))
        for c in range(k):
            x[:, c * per_class : (c + 1) * per_class] = (
                means[c][:, None] + sigma * rng.standard_normal((d, per_class))
            )
        ds = gen_gaussian(GaussianSpec(k=k, per_class=per_class, d=d, sigma=sigma, seed=seed))
        assert ds.x.tobytes() == x.tobytes()
        assert ds.x.flags.c_contiguous
        assert ds.y.tolist() == [c for c in range(k) for _ in range(per_class)]


class TestSkewed:
    def test_degenerate_ranges(self):
        spec = SkewedSpec(counts=(1, 1), alpha_ranges=((1.0, 1.0), (1.0, 1.0)), seed=0)
        ds = gen_skewed(spec)
        assert np.array_equal(ds.x, np.eye(2))
        assert np.array_equal(ds.y, [0, 1])

    def test_single_positive_coordinate(self):
        spec = SkewedSpec(counts=(4, 2, 3), alpha_ranges=((0.5, 1.5), (1.0, 2.0), (0.2, 0.4)), seed=5)
        ds = gen_skewed(spec)
        assert ds.d == 3
        for i in range(ds.n):
            nz = np.nonzero(ds.x[:, i])[0]
            assert nz.size == 1
            assert nz[0] == ds.y[i]
            assert ds.x[nz[0], i] > 0

    def test_r_bound_is_max_alpha(self):
        spec = SkewedSpec(counts=(4, 2, 3), alpha_ranges=((0.5, 1.5), (1.0, 2.0), (0.2, 0.4)), seed=5)
        ds = gen_skewed(spec)
        assert ds.r_bound == ds.x.max()

    def test_counts_must_cover_every_class(self):
        with pytest.raises(ValueError):
            SkewedSpec(counts=(1, 0), alpha_ranges=((1.0, 1.0), (1.0, 1.0)), seed=0)
        with pytest.raises(ValueError):
            SkewedSpec(counts=(1, 1), alpha_ranges=((0.0, 1.0), (1.0, 1.0)), seed=0)
