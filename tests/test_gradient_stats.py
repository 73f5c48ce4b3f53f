import numpy as np
import pytest

from csdenoise.errors import ConfigError, ShapeError
from csdenoise.gradient_stats import (
    ClassMap,
    GradientStatsMap,
    HashConfig,
    compute_class_map,
    compute_stats,
    denormalize_stats,
    eigen_stats,
    gaussian_1d,
    hash_classes,
    image_gradients,
    normalize_stats,
    normalized_stats_mse,
    structure_tensor,
)


class TestImageGradients:
    def test_constant_image(self):
        gx, gy = image_gradients(np.full((8, 8), 0.4))
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_horizontal_ramp(self):
        w = 16
        img = np.tile(np.arange(w) / w, (8, 1))
        gx, gy = image_gradients(img)
        assert np.allclose(gx[:, 1:-1], 1.0 / w)
        assert np.allclose(gy, 0.0)
        # replicate border halves the one-sided difference
        assert np.allclose(gx[:, 0], 0.5 / w)

    def test_transpose_symmetry(self, rng):
        img = rng.random((10, 12))
        gx, gy = image_gradients(img)
        gxt, gyt = image_gradients(img.T)
        assert np.allclose(gxt, gy.T)
        assert np.allclose(gyt, gx.T)

    def test_degenerate_extent(self):
        with pytest.raises(ShapeError):
            image_gradients(np.zeros((1, 5)))


class TestStructureTensor:
    def test_zero_gradients(self):
        a, b, d = structure_tensor(np.zeros((6, 6)), np.zeros((6, 6)))
        assert np.all(a == 0) and np.all(b == 0) and np.all(d == 0)

    def test_unit_gx_normalized_weights(self):
        a, b, d = structure_tensor(np.ones((8, 8)), np.zeros((8, 8)))
        assert np.allclose(a, 1.0, atol=1e-12)
        assert np.all(b == 0) and np.all(d == 0)

    def test_matches_brute_force_window_oracle(self, rng):
        gx = rng.standard_normal((20, 22))
        gy = rng.standard_normal((20, 22))
        window, sigma = 9, 2.0
        a, b, d = structure_tensor(gx, gy, window, sigma)
        g = gaussian_1d(window, sigma)
        w2d = np.outer(g, g)
        half = window // 2
        pgx = np.pad(gx, half, mode="edge")
        pgy = np.pad(gy, half, mode="edge")
        for _ in range(20):
            i = int(rng.integers(20))
            j = int(rng.integers(22))
            acc_a = acc_b = acc_d = 0.0
            for u in range(window):
                for v in range(window):
                    xg = pgx[i + u, j + v]
                    yg = pgy[i + u, j + v]
                    acc_a += w2d[u, v] * xg * xg
                    acc_b += w2d[u, v] * xg * yg
                    acc_d += w2d[u, v] * yg * yg
            assert abs(a[i, j] - acc_a) < 1e-12
            assert abs(b[i, j] - acc_b) < 1e-12
            assert abs(d[i, j] - acc_d) < 1e-12

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            structure_tensor(np.zeros((4, 4)), np.zeros((4, 4)), window=8)


class TestEigenStats:
    def test_isotropic_tie_break(self):
        l1, l2, phi, mu = eigen_stats(1.0, 0.0, 1.0)
        assert l1 == 1.0 and l2 == 1.0
        assert phi == 0.0 and mu == 0.0

    def test_diagonal(self):
        l1, l2, phi, mu = eigen_stats(4.0, 0.0, 1.0)
        assert l1 == 4.0 and l2 == 1.0 and phi == 0.0
        assert np.isclose(mu, 1.0 / 3.0)

    def test_off_diagonal_pi_over_four(self):
        l1, l2, phi, mu = eigen_stats(2.0, 1.0, 2.0)
        assert np.isclose(l1, 3.0) and np.isclose(l2, 1.0)
        assert np.isclose(phi, np.pi / 4)
        assert np.isclose(mu, (np.sqrt(3) - 1) / (np.sqrt(3) + 1))

    def test_vertical_orientation(self):
        _, _, phi, _ = eigen_stats(1.0, 0.0, 4.0)
        assert np.isclose(phi, np.pi / 2)

    def test_against_numpy_eigh(self, rng):
        for _ in range(200):
            m = rng.standard_normal((2, 2))
            t = m.T @ m
            a, b, d = t[0, 0], t[0, 1], t[1, 1]
            l1, l2, phi, mu = eigen_stats(a, b, d)
            evals, evecs = np.linalg.eigh(t)
            assert abs(l1 - evals[1]) < 1e-10
            assert abs(l2 - evals[0]) < 1e-10
            ref_phi = np.mod(np.arctan2(evecs[1, 1], evecs[0, 1]), np.pi)
            dphi = abs(phi - ref_phi)
            assert min(dphi, np.pi - dphi) < 1e-8
            assert 0.0 <= mu <= 1.0
            assert 0.0 <= phi < np.pi

    def test_dominant_eigenvector_reconstructs(self, rng):
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            t = m.T @ m
            l1, _, phi, _ = eigen_stats(t[0, 0], t[0, 1], t[1, 1])
            v = np.array([np.cos(phi), np.sin(phi)])
            assert abs(v @ t @ v - l1) < 1e-10

    def test_rank_one_has_unit_coherence(self):
        # gradient (3, 4) outer product: l2 = 0 < l1
        g = np.array([3.0, 4.0])
        t = np.outer(g, g)
        l1, l2, phi, mu = eigen_stats(t[0, 0], t[0, 1], t[1, 1])
        assert np.isclose(l1, 25.0) and abs(l2) < 1e-12
        assert np.isclose(mu, 1.0)

    def test_negative_rounding_clamped(self):
        l1, l2, _, mu = eigen_stats(1e-18, 1e-18, -1e-18)
        assert l1 >= l2 >= 0.0
        assert 0.0 <= mu <= 1.0


class TestHashClasses:
    def cfg(self):
        return HashConfig()

    def test_default_class_count(self):
        assert self.cfg().num_classes == 72

    def test_all_minimal_bins(self):
        stats = GradientStatsMap(
            orientation=np.zeros((1, 1)),
            strength=np.zeros((1, 1)),
            coherence=np.zeros((1, 1)),
        )
        assert hash_classes(stats, self.cfg()).indices[0, 0] == 1

    def test_all_maximal_bins(self):
        stats = GradientStatsMap(
            orientation=np.full((1, 1), np.pi - 1e-9),
            strength=np.full((1, 1), 1.0),
            coherence=np.full((1, 1), 0.999),
        )
        assert hash_classes(stats, self.cfg()).indices[0, 0] == 72

    def test_threshold_boundaries_stay_low(self):
        # a value exactly at a threshold is not "strictly below" it
        cfg = self.cfg()
        stats = GradientStatsMap(
            orientation=np.zeros((1, 1)),
            strength=np.full((1, 1), cfg.strength_thresholds[0]),
            coherence=np.full((1, 1), cfg.coherence_thresholds[0]),
        )
        idx = hash_classes(stats, cfg).indices[0, 0]
        # q_lam = 0, q_mu = 0 since thresholds are not below the values
        assert idx == 1

    def test_orientation_bin_edges_floor(self):
        cfg = self.cfg()
        edge = np.pi / cfg.orientation_bins
        stats = GradientStatsMap(
            orientation=np.array([[edge - 1e-12, edge]]),
            strength=np.zeros((1, 2)),
            coherence=np.zeros((1, 2)),
        )
        idx = hash_classes(stats, cfg).indices
        assert idx[0, 0] == 1  # just below the edge: bin 0
        assert idx[0, 1] == 1 + cfg.strength_bins * cfg.coherence_bins  # bin 1

    def test_totality_on_grid(self):
        cfg = self.cfg()
        phi = np.linspace(0, np.pi, 16, endpoint=False)
        lam = np.linspace(0, 0.002, 16)
        mu = np.linspace(0, 0.999, 16)
        pp, ll, mm = np.meshgrid(phi, lam, mu, indexing="ij")
        stats = GradientStatsMap(orientation=pp.reshape(16, -1),
                                 strength=ll.reshape(16, -1),
                                 coherence=mm.reshape(16, -1))
        idx = hash_classes(stats, cfg).indices
        assert idx.min() >= 1 and idx.max() <= 72

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            HashConfig(strength_bins=3, strength_thresholds=(0.1,))
        with pytest.raises(ConfigError):
            HashConfig(strength_thresholds=(0.2, 0.1))
        with pytest.raises(ConfigError):
            HashConfig(coherence_thresholds=(0.5, 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_thresholds_rejected(self, bad):
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            HashConfig(strength_thresholds=(bad, 0.001))
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            HashConfig(coherence_thresholds=(0.25, bad))
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            HashConfig(strength_bins=2, strength_thresholds=(bad,))

    @pytest.mark.parametrize("field", ["orientation", "strength", "coherence"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stats_rejected(self, field, bad):
        fields = {f: np.zeros((2, 2)) for f in ("orientation", "strength", "coherence")}
        fields[field][1, 0] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            hash_classes(GradientStatsMap(**fields), self.cfg())

    def test_classmap_validation(self):
        with pytest.raises(ShapeError):
            ClassMap(np.ones((3, 3)))  # floats rejected
        with pytest.raises(ShapeError):
            ClassMap(np.ones((2, 3, 3), dtype=np.int64))


class TestComputeClassMap:
    def test_overflowing_image_rejected(self, toy_images):
        # finite pixels whose squared gradients overflow to an infinite strength
        img = toy_images[0][:32, :32] * 1e200
        assert np.isfinite(img).all() and not np.isfinite(compute_stats(img).strength).all()
        with pytest.raises(ConfigError, match="non-finite"):
            compute_class_map(img)

    def test_constant_image_is_class_one(self):
        _, cmap = compute_class_map(np.full((16, 16), 0.5))
        assert np.all(cmap.indices == 1)

    def test_vertical_stripes_constant_orientation_bin(self):
        x = np.arange(32) / 32.0
        img = 0.5 + 0.4 * np.sin(2 * np.pi * 5 * x)
        img = np.tile(img, (32, 1))
        stats, cmap = compute_class_map(img)
        cfg = HashConfig()
        interior = stats.orientation[8:-8, 8:-8]
        bins = np.floor(interior / (np.pi / cfg.orientation_bins))
        assert len(np.unique(bins)) == 1
        assert np.unique(bins)[0] == 0.0  # horizontal gradient direction

    def test_composition_is_bit_exact(self, rng):
        img = rng.random((24, 24))
        cfg = HashConfig()
        stats, cmap = compute_class_map(img, cfg)
        gx, gy = image_gradients(img)
        a, b, d = structure_tensor(gx, gy)
        l1, _, phi, mu = eigen_stats(a, b, d)
        manual = GradientStatsMap(orientation=phi, strength=l1, coherence=mu)
        assert np.array_equal(stats.orientation, manual.orientation)
        assert np.array_equal(stats.strength, manual.strength)
        assert np.array_equal(cmap.indices, hash_classes(manual, cfg).indices)

    def test_rotation_permutes_orientation(self, toy_images):
        img = toy_images[3]  # blurred noise: gradients everywhere
        stats = compute_stats(img)
        stats_rot = compute_stats(np.rot90(img).copy())
        inner = slice(8, -8)
        phi = stats.orientation[inner, inner]
        # rot90 maps pixel (i, j) -> (H-1-j, i); sample the same physical points
        phi_rot = np.rot90(stats_rot.orientation, -1)[inner, inner]
        l1 = stats.strength[inner, inner]
        mu = stats.coherence[inner, inner]
        l2 = l1 * ((1 - mu) / (1 + mu)) ** 2
        ok = l1 - l2 > 1e-12  # orientation is well-defined away from isotropy
        assert ok.mean() > 0.99
        diff = np.abs(np.mod(phi + np.pi / 2, np.pi) - phi_rot)
        diff = np.minimum(diff, np.pi - diff)
        assert diff[ok].max() < 1e-6

    def test_stats_invariants_on_real_content(self, toy_images):
        for img in toy_images:
            stats = compute_stats(img)
            assert np.all(stats.orientation >= 0) and np.all(stats.orientation < np.pi)
            assert np.all(stats.strength >= 0)
            assert np.all((stats.coherence >= 0) & (stats.coherence <= 1))


class TestNormalization:
    def test_round_trip_within_clamps(self, toy_images):
        stats = compute_stats(toy_images[2])
        raw = normalize_stats(stats)
        back = denormalize_stats(raw)
        assert np.allclose(back.orientation, stats.orientation, atol=1e-9)
        assert np.allclose(back.coherence, stats.coherence, atol=1e-12)
        saturated = stats.strength >= 0.04  # strength clamps at scale^2
        assert np.allclose(back.strength[~saturated], stats.strength[~saturated],
                           rtol=1e-9, atol=1e-15)

    def test_denormalize_clamps_wild_output(self, rng):
        raw = rng.standard_normal((3, 8, 8)) * 10
        stats = denormalize_stats(raw)
        assert np.all((stats.orientation >= 0) & (stats.orientation < np.pi))
        assert np.all(stats.strength >= 0)
        assert np.all((stats.coherence >= 0) & (stats.coherence <= 1))

    def test_mse_of_identical_stats_is_zero(self, toy_images):
        stats = compute_stats(toy_images[0])
        assert normalized_stats_mse(stats, stats) == 0.0
