import tracemalloc

import numpy as np
import pytest

from gaussocc import lifting
from gaussocc.core import _softmax
from gaussocc.errors import ConfigurationError
from gaussocc.harness import oracle_bilinear_sample
from gaussocc.lifting import (
    CameraLiftParams,
    CameraView,
    DepthPlaneStack,
    KeypointParams,
    KeypointSet,
    LdfaParams,
    MultiViewFeatureSet,
    aggregate_camera,
    chunk_means,
    cross_depth_modulate,
    gated_global_fusion,
    generate_keypoints,
    ldfa_depth_sample,
    lift_lidar,
    project_to_view,
)


def make_view(plane, f=100.0, c=(50.0, 50.0)):
    intr = np.array([[f, 0.0, c[0]], [0.0, f, c[1]], [0.0, 0.0, 1.0]])
    return CameraView(plane=plane, intrinsics=intr, extrinsics=np.eye(4))


def constant_view(value, h=101, w=101, channels=3):
    return make_view(np.full((h, w, channels), float(value)))


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes tracemalloc traced while it ran (numpy reports its
    allocations to tracemalloc, so the peak repeats exactly)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_stack(planes, origin=(0.0, 0.0), cell=(1.0, 1.0)):
    d = planes.shape[0]
    z = np.stack([np.arange(d, dtype=float), np.arange(d, dtype=float) + 1.0], axis=1)
    return DepthPlaneStack(planes=planes, z_intervals=z, origin_xy=np.array(origin), cell_size=np.array(cell))


class TestProjectToView:
    def test_optical_axis_hits_principal_point(self):
        uv, depth, valid = project_to_view(np.array([0.0, 0.0, 1.0]), constant_view(0.0))
        np.testing.assert_allclose(uv, [50.0, 50.0])
        assert depth == pytest.approx(1.0)
        assert valid

    def test_point_behind_camera_invalid(self):
        _, _, valid = project_to_view(np.array([0.0, 0.0, -1.0]), constant_view(0.0))
        assert not valid

    def test_hand_pinhole_arithmetic(self):
        uv, _, valid = project_to_view(np.array([0.1, 0.0, 1.0]), constant_view(0.0))
        np.testing.assert_allclose(uv, [60.0, 50.0])
        assert valid

    def test_outside_plane_invalid(self):
        _, _, valid = project_to_view(np.array([10.0, 0.0, 1.0]), constant_view(0.0))
        assert not valid


class TestSampleBilinear:
    """The corner-array oracle that the lifting kernel is held to."""

    def test_on_texel_identity(self):
        rng = np.random.default_rng(0)
        plane = rng.normal(size=(4, 5, 3))
        np.testing.assert_allclose(oracle_bilinear_sample(plane, np.array([2.0, 1.0])), plane[1, 2])

    def test_midway_average(self):
        plane = np.zeros((2, 2, 2))
        plane[0, 0] = 2.0
        plane[0, 1] = 4.0
        np.testing.assert_allclose(oracle_bilinear_sample(plane, np.array([0.5, 0.0])), [3.0, 3.0])

    def test_fully_outside_zero(self):
        plane = np.ones((4, 4, 2))
        np.testing.assert_array_equal(oracle_bilinear_sample(plane, np.array([-5.0, 1.0])), [0.0, 0.0])
        np.testing.assert_array_equal(oracle_bilinear_sample(plane, np.array([1.0, 99.0])), [0.0, 0.0])

    def test_boundary_partial_contribution(self):
        plane = np.ones((4, 4, 1))
        np.testing.assert_allclose(oracle_bilinear_sample(plane, np.array([-0.5, 1.0])), [0.5])


def reference_camera(centroids, views, params):
    """aggregate_camera's definition: every (anchor, view) pair sampled through
    the oracle, invalid pairs zeroed, the sum divided by the valid-view count."""
    centroids = np.asarray(centroids, dtype=np.float64)
    weights = _softmax(params.weight_logits)
    acc = np.zeros(centroids.shape[:-1] + (views.feature_width,))
    count = np.zeros(centroids.shape[:-1])
    for view in views.views:
        uv, _, valid = project_to_view(centroids, view)
        samples = oracle_bilinear_sample(view.plane, uv[..., None, :] + params.offsets)
        feat = np.sum(weights[:, None] * samples, axis=-2)
        acc += np.where(valid[..., None], feat, 0.0)
        count += valid
    return acc / np.maximum(count, 1)[..., None]


def reference_depth(centroids, keypoints, stack):
    """ldfa_depth_sample's definition: one oracle sample per depth level."""
    positions = np.asarray(centroids, dtype=np.float64)[..., None, :] + keypoints.offsets
    uv = stack.to_plane_coords(positions[..., :2])
    rows = [
        np.sum(keypoints.weights[..., None] * oracle_bilinear_sample(stack.planes[d], uv), axis=-2)
        for d in range(stack.depth_levels)
    ]
    return np.stack(rows, axis=-2)


def three_views(rng, h=7, w=9, channels=5):
    """Three cameras at the origin looking down +z with different principal
    points, so some anchors are seen by every view, some by a few, some by none."""
    return MultiViewFeatureSet(
        views=tuple(
            make_view(rng.normal(size=(h, w, channels)), f=4.0, c=c) for c in ((4.0, 3.0), (1.0, 1.0), (7.5, 5.0))
        )
    )


class TestTapsAgainstOracle:
    """The tap kernel behind aggregate_camera and ldfa_depth_sample stays
    within 1e-12 of the oracle-built definitions."""

    ATOL = 1e-12

    def test_camera_random_anchors_with_leading_axes(self):
        rng = np.random.default_rng(11)
        views = three_views(rng)
        params = CameraLiftParams(offsets=rng.normal(scale=2.0, size=(4, 2)), weight_logits=rng.normal(size=4))
        centroids = rng.uniform(-1.5, 1.5, size=(6, 50, 3)) + [0.0, 0.0, 1.2]
        out = aggregate_camera(centroids, views, params)
        assert out.shape == (6, 50, 5)
        np.testing.assert_allclose(out, reference_camera(centroids, views, params), rtol=0, atol=self.ATOL)

    def test_camera_one_gathered_row_per_block(self, monkeypatch):
        rng = np.random.default_rng(12)
        views = three_views(rng)
        params = CameraLiftParams(offsets=rng.normal(size=(3, 2)), weight_logits=rng.normal(size=3))
        centroids = rng.uniform(-1.0, 1.0, size=(40, 3)) + [0.0, 0.0, 1.5]
        monkeypatch.setattr(lifting, "_GATHER_BYTES", 1)
        np.testing.assert_allclose(
            aggregate_camera(centroids, views, params), reference_camera(centroids, views, params),
            rtol=0, atol=self.ATOL,
        )

    def test_camera_taps_on_last_texel(self):
        rng = np.random.default_rng(13)
        plane = rng.normal(size=(5, 6, 3))
        view = make_view(plane, f=2.0, c=(0.0, 0.0))
        # projects to (u, v) = (5, 4): the last column and the last row
        centroid = np.array([2.5, 2.0, 1.0])
        params = CameraLiftParams(offsets=np.array([[0.0, 0.0], [-5.0, 0.0], [0.0, -4.0]]), weight_logits=np.zeros(3))
        views = MultiViewFeatureSet(views=(view,))
        out = aggregate_camera(centroid, views, params)
        np.testing.assert_allclose(out, (plane[4, 5] + plane[4, 0] + plane[0, 5]) / 3.0, rtol=0, atol=self.ATOL)
        np.testing.assert_allclose(out, reference_camera(centroid, views, params), rtol=0, atol=self.ATOL)

    def test_camera_negative_and_far_offsets(self):
        rng = np.random.default_rng(14)
        views = three_views(rng)
        offsets = np.array([[-0.5, -0.5], [-1.0, 2.0], [-3.7, 0.2], [1e6, 0.0], [0.0, -1e6], [8.6, 6.4]])
        params = CameraLiftParams(offsets=offsets, weight_logits=rng.normal(size=6))
        centroids = rng.uniform(-1.0, 1.0, size=(30, 3)) + [0.0, 0.0, 1.5]
        np.testing.assert_allclose(
            aggregate_camera(centroids, views, params), reference_camera(centroids, views, params),
            rtol=0, atol=self.ATOL,
        )

    def test_camera_all_offsets_off_plane(self):
        rng = np.random.default_rng(15)
        views = three_views(rng)
        params = CameraLiftParams(offsets=np.array([[-20.0, 0.0], [0.0, 30.0], [-1e6, -1e6]]), weight_logits=np.zeros(3))
        centroids = rng.uniform(-0.5, 0.5, size=(10, 3)) + [0.0, 0.0, 2.0]
        out = aggregate_camera(centroids, views, params)
        np.testing.assert_array_equal(out, np.zeros((10, 5)))
        np.testing.assert_array_equal(out, reference_camera(centroids, views, params))

    def test_camera_anchor_seen_by_no_view_and_by_every_view(self):
        rng = np.random.default_rng(16)
        views = three_views(rng)
        params = CameraLiftParams(offsets=rng.normal(size=(4, 2)), weight_logits=rng.normal(size=4))
        # behind every camera; inside every view; inside the first view only
        centroids = np.array([[0.0, 0.0, -1.0], [0.1, 0.1, 2.0], [-0.75, 0.5, 1.0]])
        seen = np.array([project_to_view(centroids, v)[2] for v in views.views]).T
        np.testing.assert_array_equal(seen.sum(axis=1), [0, 3, 1])
        out = aggregate_camera(centroids, views, params)
        np.testing.assert_array_equal(out[0], np.zeros(5))
        np.testing.assert_allclose(out, reference_camera(centroids, views, params), rtol=0, atol=self.ATOL)

    def test_camera_single_point_and_empty_set(self):
        rng = np.random.default_rng(17)
        views = three_views(rng)
        params = CameraLiftParams(offsets=rng.normal(size=(4, 2)), weight_logits=rng.normal(size=4))
        point = np.array([0.1, -0.2, 1.4])
        out = aggregate_camera(point, views, params)
        assert out.shape == (5,)
        np.testing.assert_allclose(out, reference_camera(point, views, params), rtol=0, atol=self.ATOL)
        assert aggregate_camera(np.zeros((0, 3)), views, params).shape == (0, 5)

    def test_depth_random_anchors_with_leading_axes(self):
        rng = np.random.default_rng(21)
        stack = make_stack(rng.normal(size=(3, 6, 7, 4)), origin=(-1.0, -2.0), cell=(0.5, 0.75))
        kp = KeypointSet(offsets=rng.normal(size=(8, 40, 4, 3)), weights=rng.random((8, 40, 4)))
        centroids = rng.uniform(-1.5, 3.5, size=(8, 40, 3))
        out = ldfa_depth_sample(centroids, kp, stack)
        assert out.shape == (8, 40, 3, 4)
        np.testing.assert_allclose(out, reference_depth(centroids, kp, stack), rtol=0, atol=self.ATOL)

    def test_depth_one_gathered_row_per_block(self, monkeypatch):
        rng = np.random.default_rng(22)
        stack = make_stack(rng.normal(size=(4, 5, 5, 3)))
        kp = KeypointSet(offsets=rng.normal(size=(30, 4, 3)), weights=rng.random((30, 4)))
        centroids = rng.uniform(0.0, 5.0, size=(30, 3))
        monkeypatch.setattr(lifting, "_GATHER_BYTES", 1)
        np.testing.assert_allclose(
            ldfa_depth_sample(centroids, kp, stack), reference_depth(centroids, kp, stack), rtol=0, atol=self.ATOL
        )

    def test_depth_taps_on_last_texel(self):
        rng = np.random.default_rng(23)
        planes = rng.normal(size=(2, 4, 5, 3))
        stack = make_stack(planes)
        # world (4.5, 3.5) is plane coordinate (4, 3): the last column and the last row
        kp = KeypointSet(offsets=np.array([[0.0, 0.0, 0.0], [-4.0, 0.0, 0.0], [0.0, -3.0, 0.0]]), weights=np.ones(3))
        out = ldfa_depth_sample(np.array([4.5, 3.5, 0.0]), kp, stack)
        np.testing.assert_allclose(out, planes[:, 3, 4] + planes[:, 3, 0] + planes[:, 0, 4], rtol=0, atol=self.ATOL)
        np.testing.assert_allclose(
            out, reference_depth(np.array([4.5, 3.5, 0.0]), kp, stack), rtol=0, atol=self.ATOL
        )

    def test_depth_negative_and_far_coordinates(self):
        rng = np.random.default_rng(24)
        stack = make_stack(rng.normal(size=(3, 4, 4, 2)))
        xy = np.array([[0.0, 0.0], [-0.5, 2.0], [-3.2, -0.1], [1e6, 1.0], [2.0, -1e6], [4.4, 4.6], [-1e6, 1e6]])
        offsets = np.concatenate([xy, np.zeros((len(xy), 1))], axis=1)
        kp = KeypointSet(offsets=np.broadcast_to(offsets, (20,) + offsets.shape), weights=rng.random((20, len(xy))))
        centroids = rng.uniform(-1.0, 5.0, size=(20, 3))
        np.testing.assert_allclose(
            ldfa_depth_sample(centroids, kp, stack), reference_depth(centroids, kp, stack), rtol=0, atol=self.ATOL
        )

    def test_depth_all_keypoints_off_plane(self):
        rng = np.random.default_rng(25)
        stack = make_stack(rng.normal(size=(3, 4, 4, 2)))
        kp = KeypointSet(offsets=np.array([[-10.0, 1.0, 0.0], [1.0, 50.0, 0.0], [1e6, -1e6, 0.0]]), weights=np.ones(3))
        out = ldfa_depth_sample(np.array([[1.0, 1.0, 0.0], [2.0, 3.0, 1.0]]), kp, stack)
        np.testing.assert_array_equal(out, np.zeros((2, 3, 2)))

    def test_depth_single_point_and_empty_set(self):
        rng = np.random.default_rng(26)
        stack = make_stack(rng.normal(size=(3, 4, 4, 2)))
        kp = KeypointSet(offsets=rng.normal(size=(4, 3)), weights=rng.random(4))
        point = np.array([1.7, 2.2, 0.0])
        out = ldfa_depth_sample(point, kp, stack)
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out, reference_depth(point, kp, stack), rtol=0, atol=self.ATOL)
        empty = KeypointSet(offsets=np.zeros((0, 4, 3)), weights=np.zeros((0, 4)))
        assert ldfa_depth_sample(np.zeros((0, 3)), empty, stack).shape == (0, 3, 2)


class TestDepthPlaneStack:
    @pytest.mark.parametrize(
        "origin, cell, field",
        [
            ((0.0, 0.0), (0.0, 1.0), "cell_size"),
            ((0.0, 0.0), (1.0, -1.0), "cell_size"),
            ((0.0, 0.0), (1.0, 1.0, 1.0), "cell_size"),
            ((0.0, 0.0), (np.nan, 1.0), "cell_size"),
            ((0.0,), (1.0, 1.0), "origin_xy"),
            ((0.0, np.inf), (1.0, 1.0), "origin_xy"),
        ],
    )
    def test_rejects_bad_geo_reference(self, origin, cell, field):
        with pytest.raises(ConfigurationError) as info:
            make_stack(np.zeros((1, 2, 2, 1)), origin=origin, cell=cell)
        assert info.value.field == field


class TestAggregateCamera:
    def test_constant_plane_returns_value(self):
        params = CameraLiftParams(offsets=np.zeros((4, 2)), weight_logits=np.zeros(4))
        views = MultiViewFeatureSet(views=(constant_view(7.5),))
        out = aggregate_camera(np.array([0.0, 0.0, 1.0]), views, params)
        np.testing.assert_allclose(out, np.full(3, 7.5))

    def test_anchor_behind_all_cameras(self):
        params = CameraLiftParams(offsets=np.zeros((4, 2)), weight_logits=np.zeros(4))
        views = MultiViewFeatureSet(views=(constant_view(7.5), constant_view(2.5)))
        out = aggregate_camera(np.array([0.0, 0.0, -1.0]), views, params)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_two_views_average(self):
        params = CameraLiftParams(offsets=np.zeros((4, 2)), weight_logits=np.zeros(4))
        views = MultiViewFeatureSet(views=(constant_view(1.0), constant_view(3.0)))
        out = aggregate_camera(np.array([0.0, 0.0, 1.0]), views, params)
        np.testing.assert_allclose(out, np.full(3, 2.0))

    def test_view_order_invariance(self):
        rng = np.random.default_rng(8)
        params = CameraLiftParams(offsets=rng.normal(size=(4, 2)), weight_logits=rng.normal(size=4))
        a = constant_view(1.0)
        b = make_view(rng.normal(size=(101, 101, 3)))
        point = np.array([0.05, -0.02, 1.3])
        out_ab = aggregate_camera(point, MultiViewFeatureSet(views=(a, b)), params)
        out_ba = aggregate_camera(point, MultiViewFeatureSet(views=(b, a)), params)
        np.testing.assert_allclose(out_ab, out_ba, rtol=1e-12, atol=1e-12)


class TestLdfaDepthSample:
    def test_single_keypoint_on_texel(self):
        rng = np.random.default_rng(1)
        planes = rng.normal(size=(3, 4, 5, 2))
        stack = make_stack(planes)
        kp = KeypointSet(offsets=np.zeros((1, 3)), weights=np.ones(1))
        # centroid at world (2.5, 1.5): plane coords (2.0, 1.0) = texel (row1, col2)
        rows = ldfa_depth_sample(np.array([2.5, 1.5, 0.0]), kp, stack)
        for d in range(3):
            np.testing.assert_allclose(rows[d], planes[d, 1, 2])

    def test_two_keypoints_weighted_sum(self):
        planes = np.zeros((1, 2, 3, 1))
        planes[0, 0, 0] = 2.0
        planes[0, 0, 2] = 4.0
        stack = make_stack(planes)
        offsets = np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        kp = KeypointSet(offsets=offsets, weights=np.array([0.5, 0.5]))
        rows = ldfa_depth_sample(np.array([1.5, 0.5, 0.0]), kp, stack)
        np.testing.assert_allclose(rows[0], [3.0])

    def test_zero_weights_zero_rows(self):
        rng = np.random.default_rng(2)
        stack = make_stack(rng.normal(size=(4, 3, 3, 2)))
        kp = KeypointSet(offsets=rng.normal(size=(3, 3)), weights=np.zeros(3))
        rows = ldfa_depth_sample(np.array([1.0, 1.0, 0.0]), kp, stack)
        np.testing.assert_array_equal(rows, np.zeros((4, 2)))

    def test_linear_in_plane_values(self):
        rng = np.random.default_rng(3)
        planes = rng.normal(size=(2, 6, 6, 3))
        kp = KeypointSet(offsets=rng.normal(size=(4, 3)) * 0.5, weights=rng.random(4))
        centroid = np.array([3.0, 3.0, 0.5])
        base = ldfa_depth_sample(centroid, kp, make_stack(planes))
        scaled = ldfa_depth_sample(centroid, kp, make_stack(3.0 * planes))
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12, atol=1e-12)


class TestPartitionDepths:
    """The contiguous depth chunks that chunk_means pools: a level-index column
    pools to each chunk's mean level index."""

    def test_singleton_chunks(self):
        levels = np.broadcast_to(np.arange(4.0)[:, None], (2, 4, 3))
        np.testing.assert_array_equal(chunk_means(levels, 4), levels)

    def test_even_split(self):
        np.testing.assert_array_equal(chunk_means(np.arange(4.0)[:, None], 2), [[0.5], [2.5]])

    def test_remainder_to_last(self):
        np.testing.assert_array_equal(chunk_means(np.arange(3.0)[:, None], 2), [[0.0], [1.5]])
        np.testing.assert_array_equal(chunk_means(np.arange(8.0)[:, None], 3), [[0.5], [2.5], [5.5]])

    def test_chunks_exceed_levels(self):
        for k in (4, 0):  # K > D and K < 1
            with pytest.raises(ConfigurationError) as err:
                chunk_means(np.zeros((3, 2)), k)
            assert err.value.field == "depth_chunks"


class TestChunkMeans:
    def test_singleton_identity(self):
        rng = np.random.default_rng(4)
        f_depth = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(chunk_means(f_depth, 4), f_depth)

    def test_hand_mean(self):
        f_depth = np.array([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0], [7.0, 7.0]])
        np.testing.assert_allclose(chunk_means(f_depth, 2), [[1.0, 1.0], [6.0, 6.0]])

    def test_constant_field(self):
        f_depth = np.full((6, 2), 3.25)
        np.testing.assert_allclose(chunk_means(f_depth, 3), np.full((3, 2), 3.25))

    def test_equal_chunks_recover_global_mean(self):
        rng = np.random.default_rng(5)
        f_depth = rng.normal(size=(8, 3))
        np.testing.assert_allclose(
            chunk_means(f_depth, 4).mean(axis=0), f_depth.mean(axis=0), rtol=1e-12, atol=1e-12
        )

    def test_bitwise_equal_to_gathered_rows(self):
        # per-chunk np.mean over a slice view and over a gathered copy of the rows
        rng = np.random.default_rng(6)
        f_depth = rng.normal(size=(2, 50, 8, 16))
        for k, bounds in ((1, (0, 8)), (3, (0, 2, 4, 8)), (4, (0, 2, 4, 6, 8)), (8, tuple(range(9)))):
            spans = list(zip(bounds[:-1], bounds[1:]))
            sliced = np.stack([np.mean(f_depth[..., lo:hi, :], axis=-2) for lo, hi in spans], axis=-2)
            gathered = np.stack(
                [np.mean(f_depth[..., list(range(lo, hi)), :], axis=-2) for lo, hi in spans], axis=-2
            )
            out = chunk_means(f_depth, k)
            assert out.tobytes() == sliced.tobytes() == gathered.tobytes()


def ldfa_params(f, k, phi_w=None, phi_b=None, gate_w=None, gate_b=0.0):
    return LdfaParams(
        phi_w=np.zeros(((k - 1) * f, f)) if phi_w is None else phi_w,
        phi_b=np.zeros(f) if phi_b is None else phi_b,
        gate_w=np.zeros(2 * f) if gate_w is None else gate_w,
        gate_b=gate_b,
    )


class TestCrossDepthModulate:
    def test_open_mask_passes_last_chunk(self):
        chunks = np.array([[1.0, -1.0], [0.5, 0.5], [2.0, 3.0]])
        params = ldfa_params(2, 3, phi_b=np.full(2, 40.0))
        np.testing.assert_allclose(cross_depth_modulate(chunks, params), [2.0, 3.0])

    def test_zero_last_chunk_annihilates(self):
        rng = np.random.default_rng(6)
        chunks = rng.normal(size=(3, 4))
        chunks[-1] = 0.0
        params = ldfa_params(4, 3, phi_w=rng.normal(size=(8, 4)))
        np.testing.assert_array_equal(cross_depth_modulate(chunks, params), np.zeros(4))

    def test_half_mask(self):
        chunks = np.array([[9.0, 9.0], [2.0, 2.0]])
        params = ldfa_params(2, 2)
        np.testing.assert_allclose(cross_depth_modulate(chunks, params), [1.0, 1.0])

    def test_single_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            cross_depth_modulate(np.ones((1, 4)), ldfa_params(4, 2))


class TestGatedGlobalFusion:
    def test_saturated_open_gate(self):
        m = np.array([5.0, -5.0])
        f_depth = np.zeros((4, 2))
        params = ldfa_params(2, 2, gate_b=80.0)
        np.testing.assert_allclose(gated_global_fusion(m, f_depth, params), m)

    def test_saturated_closed_gate(self):
        m = np.array([5.0, -5.0])
        f_depth = np.ones((4, 2))
        params = ldfa_params(2, 2, gate_b=-80.0)
        np.testing.assert_allclose(gated_global_fusion(m, f_depth, params), np.ones(2))

    def test_half_gate_blend(self):
        m = np.full(2, 2.0)
        f_depth = np.zeros((3, 2))
        params = ldfa_params(2, 2)
        np.testing.assert_allclose(gated_global_fusion(m, f_depth, params), [1.0, 1.0])

    def test_output_in_convex_hull(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = rng.normal(size=5)
            f_depth = rng.normal(size=(6, 5))
            params = ldfa_params(5, 2, gate_w=rng.normal(size=10), gate_b=float(rng.normal()))
            out = gated_global_fusion(m, f_depth, params)
            g = f_depth.mean(axis=0)
            lo = np.minimum(m, g) - 1e-12
            hi = np.maximum(m, g) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestLiftLidarDriver:
    def test_keypoint_weights_normalized(self, small_bundle, small_model):
        params = KeypointParams.from_bundle(small_bundle)
        rng = np.random.default_rng(9)
        kp = generate_keypoints(rng.normal(size=(10, 16)), rng.uniform(0.2, 1.0, size=(10, 3)), params)
        np.testing.assert_allclose(kp.weights.sum(axis=-1), np.ones(10), atol=1e-12)
        assert kp.offsets.shape == (10, 4, 3)

    def test_full_chain_shapes(self, small_bundle, small_model, small_scene):
        rng = np.random.default_rng(10)
        centroids = rng.uniform(-4, 4, size=(12, 3))
        features = np.zeros((12, 16))
        scales = np.full((12, 3), 0.5)
        kp_params = KeypointParams.from_bundle(small_bundle)
        ld_params = LdfaParams.from_bundle(small_bundle)
        out = lift_lidar(centroids, features, scales, small_scene.stack, kp_params, ld_params, 4)
        assert out.shape == (12, 16)
        assert np.all(np.isfinite(out))

    @staticmethod
    def lidar_args(bundle, stack, seed, lead):
        """Random anchors with leading axes ``lead``, then the rest of lift_lidar's arguments."""
        rng = np.random.default_rng(seed)
        f = stack.planes.shape[-1]
        return (rng.uniform(-8, 8, size=lead + (3,)), rng.normal(size=lead + (f,)),
                rng.uniform(0.2, 1.0, size=lead + (3,)), stack, KeypointParams.from_bundle(bundle),
                LdfaParams.from_bundle(bundle), 4)

    @staticmethod
    def unblocked(centroids, features, scales, stack, kp_params, ld_params, chunks):
        """The LDFA chain over every anchor at once, composed from the public steps."""
        keypoints = generate_keypoints(features, scales, kp_params)
        f_depth = ldfa_depth_sample(centroids, keypoints, stack)
        modulated = cross_depth_modulate(chunk_means(f_depth, chunks), ld_params)
        return gated_global_fusion(modulated, f_depth, ld_params)

    # 16-anchor blocks; a last anchor on its own joins the block before it
    @pytest.mark.parametrize("n, blocks", [(0, [0]), (1, [1]), (16, [16]), (17, [17]), (53, [16, 16, 16, 5])],
                             ids=["empty", "one", "one-block", "block-plus-one", "ragged-blocks"])
    def test_blocked_chain_bitwise_equal_to_unblocked(self, small_bundle, small_scene, monkeypatch, n, blocks):
        d, _, _, f = small_scene.stack.planes.shape
        monkeypatch.setattr(lifting, "_LIFT_BLOCK_BYTES", 16 * 8 * d * f)
        seen, views = [], []
        keypoints, reduce_taps = lifting.generate_keypoints, lifting._reduce_taps
        monkeypatch.setattr(lifting, "generate_keypoints", lambda feats, *a: seen.append(len(feats)) or keypoints(feats, *a))
        monkeypatch.setattr(lifting, "_reduce_taps", lambda rows, *a: views.append(
            np.shares_memory(rows, small_scene.stack.planes)) or reduce_taps(rows, *a))
        args = self.lidar_args(small_bundle, small_scene.stack, 11, (n,))
        out = lift_lidar(*args)
        assert seen == blocks
        assert views == [True] * len(blocks)  # every block reads the stack's own rows: no copy
        assert out.shape == (n, f)
        np.testing.assert_array_equal(out, self.unblocked(*args))

    def test_leading_axes_blocked_bitwise(self, small_bundle, small_scene, monkeypatch):
        d, _, _, f = small_scene.stack.planes.shape
        monkeypatch.setattr(lifting, "_LIFT_BLOCK_BYTES", 16 * 8 * d * f)
        args = self.lidar_args(small_bundle, small_scene.stack, 12, (2, 37))
        out = lift_lidar(*args)
        assert out.shape == (2, 37, f)
        np.testing.assert_array_equal(out, self.unblocked(*args))

    def test_peak_allocation_below_whole_depth_tensor(self, small_bundle, small_scene, monkeypatch):
        # eight and a half 1 MiB blocks: the traced peak must stay below one
        # (N, D, F) float64 depth tensor over every anchor
        d, _, _, f = small_scene.stack.planes.shape
        monkeypatch.setattr(lifting, "_LIFT_BLOCK_BYTES", 2**20)
        n = 17 * (2**20 // (8 * d * f)) // 2
        args = self.lidar_args(small_bundle, small_scene.stack, 13, (n,))
        _, peak = traced_peak(lift_lidar, *args)
        assert peak < 8 * n * d * f, (peak, 8 * n * d * f)

    def test_constructed_stack_lifted_without_copy(self, small_bundle):
        # a stack built from C-ordered (D, H, W, F) planes is stored texel-major when it
        # is made, so lifting allocates no (H*W, D*F) copy of it
        stack = make_stack(np.random.default_rng(14).normal(size=(8, 64, 64, 16)))
        args = self.lidar_args(small_bundle, stack, 15, (40,))
        out, peak = traced_peak(lift_lidar, *args)
        assert peak < stack.planes.nbytes, (peak, stack.planes.nbytes)
        np.testing.assert_array_equal(out, self.unblocked(*args))
