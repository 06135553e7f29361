import numpy as np
import pytest

from gaussocc.core import (
    GaussianPrimitive,
    GridSpec,
    ModelConfig,
    default_taxonomy,
    init_anchors,
    make_covariance,
    quaternion_to_matrix,
    stack_primitives,
    voxel_center,
    voxel_centers,
)
from gaussocc.errors import ConfigurationError, InvalidRotationError


def random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


class TestMakeCovariance:
    def test_identity_case(self):
        cov = make_covariance(np.ones(3), np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(cov, np.eye(3), atol=1e-12)

    def test_quarter_turn_about_z(self):
        # hand multiplication: R = [[0,-1,0],[1,0,0],[0,0,1]],
        # R diag(4,1,1) R^T = diag(1,4,1)
        half = np.sqrt(0.5)
        rot = np.array([half, 0.0, 0.0, half])
        r_hand = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = r_hand @ np.diag([4.0, 1.0, 1.0]) @ r_hand.T
        cov = make_covariance(np.array([2.0, 1.0, 1.0]), rot)
        np.testing.assert_allclose(cov, expected, atol=1e-9)
        np.testing.assert_allclose(cov, np.diag([1.0, 4.0, 1.0]), atol=1e-9)

    def test_isotropic_any_rotation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cov = make_covariance(np.ones(3), random_unit_quaternion(rng))
            np.testing.assert_allclose(cov, np.eye(3), atol=1e-12)

    def test_symmetric_psd_property(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            scale = rng.uniform(0.05, 5.0, size=3)
            cov = make_covariance(scale, random_unit_quaternion(rng))
            np.testing.assert_allclose(cov, cov.T, atol=1e-9)
            eigenvalues = np.linalg.eigvalsh(cov)
            np.testing.assert_allclose(np.sort(eigenvalues), np.sort(scale**2), rtol=1e-9, atol=1e-9)

    def test_quaternion_sign_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = random_unit_quaternion(rng)
            scale = rng.uniform(0.1, 3.0, size=3)
            np.testing.assert_array_equal(make_covariance(scale, q), make_covariance(scale, -q))

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(InvalidRotationError):
            make_covariance(np.ones(3), np.array([1.0, 0.0, 0.0, 0.5]))

    def test_rotation_matrix_orthonormal(self):
        rng = np.random.default_rng(5)
        q = random_unit_quaternion(rng)
        r = quaternion_to_matrix(q)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestVoxelCenter:
    def test_unit_grid_origin_voxel(self):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(4, 4, 4))
        np.testing.assert_allclose(voxel_center(spec, (0, 0, 0)), [0.5, 0.5, 0.5])

    def test_benchmark_scale_grid(self):
        spec = GridSpec(origin=np.array([-50.0, -50.0, -5.0]), voxel_size=np.full(3, 0.1), dims=(1000, 1000, 80))
        np.testing.assert_allclose(voxel_center(spec, (0, 0, 0)), [-49.95, -49.95, -4.95], atol=1e-6)

    def test_far_corner_inside_box(self):
        spec = GridSpec(origin=np.array([1.0, 2.0, 3.0]), voxel_size=np.array([0.5, 0.25, 2.0]), dims=(7, 9, 3))
        last = np.array(spec.dims) - 1
        center = voxel_center(spec, last)
        assert np.all(center > spec.origin)
        assert np.all(center < spec.upper)

    def test_out_of_range_index(self):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(4, 4, 4))
        with pytest.raises(IndexError):
            voxel_center(spec, (4, 0, 0))
        with pytest.raises(IndexError):
            voxel_center(spec, (0, -1, 0))

    def test_centers_tensor_matches_scalar(self):
        spec = GridSpec(origin=np.array([-1.0, 0.0, 2.0]), voxel_size=np.array([0.5, 1.0, 0.25]), dims=(3, 2, 4))
        grid = voxel_centers(spec)
        np.testing.assert_array_equal(grid[1, 0, 3], voxel_center(spec, (1, 0, 3)))


def reference_anchors(count, spec, seed, model):
    """Per-anchor GaussianPrimitive construction from the same Philox draws, then stacked."""
    rng = np.random.Generator(np.random.Philox(seed))
    centroids = spec.origin + rng.random((count, 3)) * spec.extent
    choices = np.asarray(model.scale_choices, dtype=np.float64)
    log_scales = np.log(choices[rng.integers(0, len(choices), size=count)])
    return stack_primitives(
        [
            GaussianPrimitive(
                centroid=centroids[i],
                log_scale=np.full(3, log_scales[i]),
                rotation=np.array([1.0, 0.0, 0.0, 0.0]),
                opacity_logit=0.0,
                semantic_logits=np.zeros(model.semantic_classes),
                feature=np.zeros(model.feature_width),
            )
            for i in range(count)
        ]
    )


class TestInitAnchors:
    def test_centroids_inside_box(self, small_grid):
        anchors = init_anchors(50, small_grid, seed=11)
        assert np.all(anchors["centroid"] >= small_grid.origin)
        assert np.all(anchors["centroid"] <= small_grid.upper)
        np.testing.assert_array_equal(anchors["rotation"], np.tile([1.0, 0.0, 0.0, 0.0], (50, 1)))
        assert np.all(np.exp(anchors["log_scale"]) > 0)

    def test_deterministic_for_seed(self, small_grid):
        a = init_anchors(32, small_grid, seed=77)
        b = init_anchors(32, small_grid, seed=77)
        np.testing.assert_array_equal(a["centroid"], b["centroid"])
        np.testing.assert_array_equal(a["log_scale"], b["log_scale"])

    def test_different_seed_differs(self, small_grid):
        a = init_anchors(32, small_grid, seed=77)
        b = init_anchors(32, small_grid, seed=78)
        assert not np.array_equal(a["centroid"][0], b["centroid"][0])

    def test_zero_count_rejected(self, small_grid):
        with pytest.raises(ConfigurationError) as info:
            init_anchors(0, small_grid, seed=1)
        assert info.value.field == "gaussian_count"

    def test_primary_configuration_count(self, small_grid):
        anchors = init_anchors(25600, small_grid, seed=5, model=ModelConfig(feature_width=8))
        assert all(len(v) == 25600 for v in anchors.values())

    def test_scales_from_discrete_choices(self, small_grid):
        anchors = init_anchors(200, small_grid, seed=3)
        seen = {round(float(v), 6) for v in np.exp(anchors["log_scale"][:, 0])}
        assert seen <= {0.2, 0.5, 1.0}
        assert len(seen) > 1

    @pytest.mark.parametrize(
        "count, seed, model",
        [
            (1, 0, ModelConfig()),
            (300, 5, ModelConfig(feature_width=8, semantic_classes=19)),
            (1024, 2**40 + 3, ModelConfig(feature_width=16, scale_choices=(0.3, 0.7))),
        ],
    )
    def test_bit_identical_to_stacked_primitives(self, small_grid, count, seed, model):
        got = init_anchors(count, small_grid, seed, model=model)
        want = reference_anchors(count, small_grid, seed, model)
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
            assert got[key].tobytes() == want[key].tobytes(), key


class TestDomainTypes:
    def test_primitive_rejects_non_unit_rotation(self):
        with pytest.raises(InvalidRotationError):
            GaussianPrimitive(
                centroid=np.zeros(3),
                log_scale=np.zeros(3),
                rotation=np.array([0.9, 0.0, 0.0, 0.0]),
                opacity_logit=0.0,
                semantic_logits=np.zeros(17),
            )

    def test_primitive_arrays_frozen(self):
        p = GaussianPrimitive(
            centroid=np.zeros(3),
            log_scale=np.zeros(3),
            rotation=np.array([1.0, 0.0, 0.0, 0.0]),
            opacity_logit=0.0,
            semantic_logits=np.zeros(17),
        )
        with pytest.raises(ValueError):
            p.centroid[0] = 1.0

    def test_taxonomy_counts(self):
        tax = default_taxonomy()
        assert tax.c_sem == 17
        assert tax.c_total == 18
        assert tax.empty_id == 17
        assert tax.class_weights[tax.names.index("construction_vehicle")] == pytest.approx(1.30)
        assert tax.class_weights[tax.names.index("bicycle")] == pytest.approx(1.27)

    def test_grid_spec_validation(self):
        with pytest.raises(ConfigurationError):
            GridSpec(origin=np.zeros(3), voxel_size=np.array([0.0, 1.0, 1.0]), dims=(2, 2, 2))
        with pytest.raises(ConfigurationError):
            GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(0, 2, 2))
        # non-finite geometry, including a float64 value that overflows float32
        for origin, voxel in [((np.nan, 0, 0), (1, 1, 1)), ((0, 0, 0), (1, 1e39, 1))]:
            with pytest.raises(ConfigurationError), np.errstate(over="ignore"):
                GridSpec(origin=np.array(origin, dtype=float), voxel_size=np.array(voxel, dtype=float), dims=(2, 2, 2))
