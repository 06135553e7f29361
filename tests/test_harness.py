import numpy as np
import pytest

from gaussocc.core import GaussianPrimitive, GridSpec, make_covariance, stack_primitives, voxel_centers
from gaussocc.errors import ConfigurationError, FormatError
from gaussocc.harness import (
    DegradationConfig,
    SceneConfig,
    degrade,
    dump_scene,
    generate_scene,
    load_scene,
    oracle_dense_splat,
    oracle_sequential_scan,
    parse_scene,
    save_scene,
)
from gaussocc.head import SsmParams, selective_scan, splat_arrays


def isotropic(centroid, scale=1.0, logits=None, opacity_logit=0.0):
    return GaussianPrimitive(
        centroid=np.asarray(centroid, dtype=np.float64),
        log_scale=np.full(3, np.log(scale)),
        rotation=np.array([1.0, 0.0, 0.0, 0.0]),
        opacity_logit=opacity_logit,
        semantic_logits=np.zeros(17) if logits is None else logits,
    )


class TestGenerateScene:
    def test_same_seed_same_hash(self, small_scene, small_grid, small_taxonomy):
        config = small_scene.config
        again = generate_scene(config, seed=99)
        assert again.scene_hash() == small_scene.scene_hash()

    def test_different_seed_different_hash(self, small_scene):
        other = generate_scene(small_scene.config, seed=100)
        assert other.scene_hash() != small_scene.scene_hash()

    def test_blob_count_within_bounds(self, small_scene):
        lo, hi = small_scene.config.blob_range
        assert lo <= len(small_scene.blob_classes) <= hi

    def test_zero_blobs_rejected(self, small_grid, small_taxonomy):
        with pytest.raises(ConfigurationError):
            SceneConfig(grid=small_grid, taxonomy=small_taxonomy, feature_width=16, blob_range=(0, 4))

    @pytest.mark.parametrize("shapes", [{"plane_shape": (-12, -16)}, {"camera_shape": (24, 0)}])
    def test_non_positive_plane_shapes_rejected(self, small_grid, small_taxonomy, shapes):
        with pytest.raises(ConfigurationError):
            SceneConfig(grid=small_grid, taxonomy=small_taxonomy, feature_width=16, **shapes)

    def test_single_central_blob_occupies_exact_ball(self, small_grid, small_taxonomy):
        config = SceneConfig(
            grid=small_grid,
            taxonomy=small_taxonomy,
            feature_width=16,
            blob_range=(1, 1),
            plane_shape=(12, 16),
            cameras=2,
            camera_shape=(24, 32),
        )
        scene = generate_scene(config, seed=5)
        mu = scene.blob_centroids[0]
        inv = np.linalg.inv(make_covariance(scene.blob_scales[0], scene.blob_rotations[0]))
        d = voxel_centers(small_grid) - mu
        quad = np.einsum("...i,ij,...j->...", d, inv, d)
        inside = np.exp(-0.5 * quad) >= config.truth_threshold
        np.testing.assert_array_equal(scene.truth.labels != small_taxonomy.empty_id, inside)

    def test_planes_carry_class_signature(self, small_scene):
        # the dominant channel over blob footprints matches a blob class
        planes = small_scene.stack.planes
        strongest = np.unravel_index(np.argmax(planes.sum(axis=-1)), planes.shape[:3])
        channel = int(np.argmax(planes[strongest]))
        assert channel in set(small_scene.blob_classes.tolist())

    def test_shapes(self, small_scene):
        cfg = small_scene.config
        assert small_scene.stack.planes.shape == (8, 12, 16, 16)
        assert len(small_scene.views.views) == cfg.cameras
        assert small_scene.views.views[0].plane.shape == (24, 32, 16)
        assert small_scene.truth.labels.shape == cfg.grid.dims


class TestDegrade:
    def test_mode_none_is_identity(self, small_scene):
        out = degrade(small_scene, DegradationConfig(mode="none"))
        assert out is small_scene

    def test_zero_parameters_leave_planes(self, small_scene):
        out = degrade(small_scene, DegradationConfig(mode="rain", seed=3))
        np.testing.assert_array_equal(out.stack.planes, small_scene.stack.planes)
        for a, b in zip(out.views.views, small_scene.views.views):
            np.testing.assert_array_equal(a.plane, b.plane)

    def test_rain_perturbs_both_modalities(self, small_scene):
        cfg = DegradationConfig(
            mode="rain", camera_noise_sigma=0.1, camera_dropout_fraction=0.2,
            lidar_noise_sigma=0.1, lidar_dropout_fraction=0.2, seed=4,
        )
        out = degrade(small_scene, cfg)
        assert not np.array_equal(out.stack.planes, small_scene.stack.planes)
        assert not np.array_equal(out.views.views[0].plane, small_scene.views.views[0].plane)

    def test_night_full_attenuation_zeroes_outside_cone(self, small_scene):
        cfg = DegradationConfig(mode="night", camera_dropout_fraction=1.0, seed=5)
        out = degrade(small_scene, cfg)
        plane = out.views.views[0].plane
        h, w = plane.shape[:2]
        corner = plane[0, 0]
        np.testing.assert_array_equal(corner, np.zeros(plane.shape[-1]))
        cy, cx = (h - 1) // 2, (w - 1) // 2
        np.testing.assert_array_equal(plane[cy, cx], small_scene.views.views[0].plane[cy, cx])

    def test_truth_untouched(self, small_scene):
        cfg = DegradationConfig(mode="rain", camera_noise_sigma=0.5, lidar_noise_sigma=0.5, seed=6)
        out = degrade(small_scene, cfg)
        assert out.truth is small_scene.truth

    def test_deterministic(self, small_scene):
        cfg = DegradationConfig(mode="rain", camera_noise_sigma=0.3, seed=7)
        a = degrade(small_scene, cfg)
        b = degrade(small_scene, cfg)
        np.testing.assert_array_equal(a.views.views[0].plane, b.views.views[0].plane)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            DegradationConfig(mode="rain", camera_dropout_fraction=1.5)


class TestSceneCodec:
    def test_round_trip(self, small_scene, tmp_path):
        path = tmp_path / "scene.gscn"
        save_scene(small_scene, path)
        again = load_scene(path)
        assert again.seed == small_scene.seed
        np.testing.assert_array_equal(again.truth.labels, small_scene.truth.labels)
        np.testing.assert_array_equal(again.stack.planes, small_scene.stack.planes)
        np.testing.assert_array_equal(again.views.views[1].plane, small_scene.views.views[1].plane)
        np.testing.assert_array_equal(again.blob_centroids, small_scene.blob_centroids)
        assert again.scene_hash() == small_scene.scene_hash()

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            parse_scene(b"JUNK" + b"\x00" * 32)

    def test_truncated_payload(self, small_scene):
        data = dump_scene(small_scene)
        with pytest.raises(FormatError):
            parse_scene(data[:-10])


class TestDenseSplatOracle:
    def test_empty_primitive_list(self):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(4, 4, 4))
        grid = oracle_dense_splat([], spec, semantic_classes=17)
        assert np.all(grid.labels == 17)
        np.testing.assert_array_equal(grid.scores, np.zeros(spec.dims + (17,)))

    def test_single_gaussian_matches_closed_form(self):
        spec = GridSpec(origin=-np.full(3, 2.5), voxel_size=np.ones(3), dims=(5, 5, 5))
        prim = isotropic([0.0, 0.0, 0.0], scale=1.3, opacity_logit=0.7)
        grid = oracle_dense_splat([prim], spec)
        centers = voxel_centers(spec)
        quad = np.sum((centers - prim.centroid) ** 2, axis=-1) / 1.3**2
        opacity = 1.0 / (1.0 + np.exp(-0.7))
        expected = opacity * np.exp(-0.5 * quad)
        np.testing.assert_allclose(grid.scores.sum(axis=-1), expected, atol=1e-12)

    def test_agreement_with_truncated_splat(self):
        rng = np.random.default_rng(8)
        prims = []
        for _ in range(24):
            q = rng.normal(size=4)
            prims.append(
                GaussianPrimitive(
                    centroid=rng.uniform(-4, 4, size=3),
                    log_scale=np.log(rng.uniform(0.3, 1.2, size=3)),
                    rotation=q / np.linalg.norm(q),
                    opacity_logit=float(rng.normal()),
                    semantic_logits=rng.normal(size=17),
                )
            )
        spec = GridSpec(origin=-np.full(3, 5.0), voxel_size=np.full(3, 0.5), dims=(20, 20, 20))
        kernel = splat_arrays(stack_primitives(prims), spec, 6.0)
        oracle = oracle_dense_splat(prims, spec)
        np.testing.assert_allclose(kernel.scores, oracle.scores, atol=1e-6)
        np.testing.assert_array_equal(kernel.labels, oracle.labels)


class TestSequentialScanOracle:
    def make_params(self, rng, f, n):
        return SsmParams(
            a=-rng.uniform(0.5, 8.0, size=(f, n)),
            w_b=rng.normal(size=(f, n)) / np.sqrt(f),
            w_c=rng.normal(size=(f, n)) / np.sqrt(f),
            w_delta=rng.normal(size=(f, f)) / np.sqrt(f),
            b_delta=np.full(f, -4.0),
            d_skip=rng.normal(size=f),
        )

    def test_zero_input_zero_output_without_skip(self):
        rng = np.random.default_rng(9)
        params = self.make_params(rng, 4, 3)
        params = SsmParams(
            a=params.a, w_b=params.w_b, w_c=params.w_c,
            w_delta=params.w_delta, b_delta=params.b_delta, d_skip=np.zeros(4),
        )
        out = oracle_sequential_scan(np.zeros((6, 4)), params)
        np.testing.assert_array_equal(out, np.zeros((6, 4)))

    def test_single_token_hand_formula(self):
        rng = np.random.default_rng(10)
        params = self.make_params(rng, 3, 2)
        x = rng.normal(size=(1, 3))
        out = oracle_sequential_scan(x, params)
        delta = np.log1p(np.exp(x[0] @ params.w_delta + params.b_delta))
        b_t = x[0] @ params.w_b
        z = delta[:, None] * params.a
        bbar = (np.expm1(z) / params.a) * b_t[None, :]
        h = bbar * x[0][:, None]
        expected = h @ (x[0] @ params.w_c) + params.d_skip * x[0]
        np.testing.assert_allclose(out[0], expected, rtol=1e-9)

    def test_matches_selective_scan(self):
        rng = np.random.default_rng(11)
        params = self.make_params(rng, 8, 4)
        tokens = rng.normal(size=(700, 8))
        fast = selective_scan(tokens, params)
        slow = oracle_sequential_scan(tokens, params)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_hundred_seeded_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            f = int(rng.integers(1, 17))
            n = int(rng.integers(1, 9))
            t = int(rng.integers(1, 129))
            params = self.make_params(rng, f, n)
            tokens = rng.normal(size=(t, f))
            np.testing.assert_allclose(
                selective_scan(tokens, params),
                oracle_sequential_scan(tokens, params),
                rtol=1e-9,
                atol=1e-12,
            )
