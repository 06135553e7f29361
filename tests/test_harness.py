import hashlib
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gaussocc.core import (
    GaussianPrimitive,
    GridSpec,
    SemanticOccupancyGrid,
    make_covariance,
    stack_primitives,
    voxel_centers,
)
from gaussocc.errors import ConfigurationError, FormatError
from gaussocc import head, presets
from gaussocc.harness import (
    DegradationConfig,
    SceneConfig,
    _blob_truth,
    blob_primitives,
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
        assert dump_scene(again) == dump_scene(small_scene)

    def test_different_seed_different_hash(self, small_scene):
        other = generate_scene(small_scene.config, seed=100)
        assert dump_scene(other) != dump_scene(small_scene)

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

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.0, 1.5, float("nan")])
    def test_truth_threshold_outside_unit_interval_rejected(self, small_grid, small_taxonomy, threshold):
        with pytest.raises(ConfigurationError) as info:
            SceneConfig(grid=small_grid, taxonomy=small_taxonomy, feature_width=16, truth_threshold=threshold)
        assert info.value.field == "truth_threshold"

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

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["camera_noise_sigma", "lidar_noise_sigma"])
    def test_noise_sigma_must_be_finite_and_non_negative(self, name, sigma):
        with pytest.raises(ConfigurationError) as info:
            DegradationConfig(mode="rain", **{name: sigma})
        assert info.value.field == name


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
        assert dump_scene(again) == dump_scene(small_scene)

    def test_depth_stack_stored_texel_major(self, small_scene, tmp_path):
        # constructed, generated, loaded and degraded stacks give lifting their (H*W, D*F) rows as a view
        path = tmp_path / "scene.gscn"
        save_scene(small_scene, path)
        again = load_scene(path)
        rain = degrade(small_scene, DegradationConfig(mode="rain", seed=3))
        built = replace(small_scene.stack, planes=np.ascontiguousarray(small_scene.stack.planes))
        for stack in (built, small_scene.stack, again.stack, rain.stack):
            assert stack.planes.dtype == np.float64
            assert np.shares_memory(stack.texel_rows, stack.planes)
        np.testing.assert_array_equal(built.planes, small_scene.stack.planes)
        assert dump_scene(again) == dump_scene(small_scene)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            parse_scene(b"JUNK" + b"\x00" * 32)

    def test_truncated_payload(self, small_scene):
        data = dump_scene(small_scene)
        with pytest.raises(FormatError):
            parse_scene(data[:-10])


def large_config(taxonomy) -> SceneConfig:
    """8 MiB of float32 planes (4 MiB of depth planes, two 2 MiB camera planes) and 2 MiB of truth labels."""
    return SceneConfig(
        grid=GridSpec(origin=np.array([-8.0, -8.0, -2.0]), voxel_size=np.array([1/16, 1/16, 0.125]),
                      dims=(256, 256, 32)),
        taxonomy=taxonomy,
        feature_width=32,
        depth_planes=8,
        plane_shape=(64, 64),
        cameras=2,
        camera_shape=(128, 128),
        blob_range=(3, 3),
    )


@pytest.fixture(scope="module")
def large_scene(tmp_path_factory, small_taxonomy):
    """The ``large_config`` scene, its file and its bytes."""
    scene = generate_scene(large_config(small_taxonomy), seed=5)
    path = tmp_path_factory.mktemp("large") / "scene.gscn"
    save_scene(scene, path)
    return scene, path, path.read_bytes()


def _sections(scene, data) -> dict[str, tuple[int, int]]:
    """[start, end) byte range of each float32 section of the scene's file."""
    start = data.index(b"END_HEADER\n") + len(b"END_HEADER\n")
    sections = {"depth planes": (start, start + 4 * scene.stack.planes.size)}
    for i, view in enumerate(scene.views.views):
        start = max(end for _, end in sections.values())
        sections[f"camera plane {i}"] = (start, start + 4 * view.plane.size)
    return sections


def _read_scene(how, data, tmp_path):
    if how == "bytes":
        return parse_scene(data)
    path = tmp_path / "scene.gscn"
    path.write_bytes(data)
    return load_scene(path)


class TestSceneLoad:
    """Each section is read block by block straight into the array the scene keeps."""

    def test_peak_is_what_the_scene_keeps(self, large_scene):
        scene, path, data = large_scene
        tracemalloc.start()
        try:
            again = load_scene(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= 2 * 8 * 2**20  # the planes, widened to float64
        assert peak <= kept + 1.5 * 2**20  # one read block over what is kept: the labels are not copied either
        assert again.truth.labels.flags.c_contiguous
        np.testing.assert_array_equal(again.truth.labels, scene.truth.labels)
        np.testing.assert_array_equal(again.stack.planes, scene.stack.planes)
        for mine, theirs in zip(again.views.views, scene.views.views):
            np.testing.assert_array_equal(mine.plane, theirs.plane)

    def test_camera_planes_are_views_of_one_array(self, large_scene):
        # one (cameras, H, W, F) block, so the planes are one allocation, freed together
        scene, path, _ = large_scene
        views = load_scene(path).views.views
        block = views[0].plane.base
        assert block.shape == (2, 128, 128, 32) and block.flags.owndata
        assert all(view.plane.base is block for view in views)

    @pytest.mark.parametrize("how", ["path", "bytes"])
    @pytest.mark.parametrize("section", ["depth planes", "camera plane 1"])
    def test_nan_in_last_block_refused_at_section_start(self, large_scene, section, how, tmp_path):
        scene, _, data = large_scene
        start, end = _sections(scene, data)[section]
        assert end - start > 2**20  # more than one block
        bad = bytearray(data)
        bad[end - 4 : end] = struct.pack("<f", np.nan)
        with pytest.raises(FormatError, match=f"non-finite value in {section}") as info:
            _read_scene(how, bytes(bad), tmp_path)
        assert info.value.offset == start

    @pytest.mark.parametrize("how", ["path", "bytes"])
    def test_cut_inside_depth_planes(self, large_scene, how, tmp_path):
        scene, _, data = large_scene
        start, end = _sections(scene, data)["depth planes"]
        with pytest.raises(FormatError, match=f"truncated scene file: wanted {end - start} bytes") as info:
            _read_scene(how, data[: (start + end) // 2], tmp_path)
        assert info.value.offset == start


def reference_blob_truth(config, centroids, scales, rotations, classes):
    """The dense truth pass: every blob evaluated at every voxel."""
    centers = voxel_centers(config.grid)
    best_density = np.zeros(config.grid.dims)
    best_class = np.full(config.grid.dims, config.taxonomy.empty_id, dtype=np.int64)
    for i in range(len(centroids)):
        inv = np.linalg.inv(make_covariance(scales[i], rotations[i]))
        d = centers - centroids[i]
        quad = np.einsum("...i,ij,...j->...", d, inv, d)
        dens = np.exp(-0.5 * quad)
        better = dens > best_density
        best_density = np.where(better, dens, best_density)
        best_class = np.where(better, classes[i], best_class)
    labels = np.where(
        best_density >= config.truth_threshold, best_class, config.taxonomy.empty_id
    ).astype(np.uint8)
    return SemanticOccupancyGrid(spec=config.grid, labels=labels)


# GridSpec (-4, -4, -2) + (16, 16, 16) voxels of 0.5 x 0.5 x 0.25: x and y span [-4, 4], z spans [-2, 2]
BOX_GRID = GridSpec(origin=np.array([-4.0, -4.0, -2.0]), voxel_size=np.array([0.5, 0.5, 0.25]), dims=(16, 16, 16))
TILTED = np.array([0.9, 0.3, -0.2, 0.25]) / np.linalg.norm([0.9, 0.3, -0.2, 0.25])
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# hand-built blob sets: (centroid, scale, rotation, class) rows
BLOB_SETS = {
    # one rotated anisotropic blob across each of the six faces
    "overhanging-faces": [
        ((-4.3, 0.2, 0.1), (1.2, 0.4, 0.6), TILTED, 0),
        ((4.1, -0.7, -0.3), (0.5, 1.1, 0.3), TILTED[[1, 0, 3, 2]], 1),
        ((0.4, -4.2, 0.5), (0.8, 1.3, 0.4), TILTED[[2, 3, 0, 1]], 2),
        ((-0.9, 4.4, -0.6), (1.4, 0.6, 0.5), TILTED, 3),
        ((1.1, 1.3, -2.2), (0.9, 0.7, 0.8), TILTED[[3, 2, 1, 0]], 4),
        ((-1.7, -1.2, 2.05), (0.6, 0.9, 0.35), TILTED, 5),
    ],
    "wholly-outside": [
        ((9.0, 0.0, 0.0), (0.5, 0.5, 0.5), TILTED, 1),
        ((0.0, 0.0, 0.0), (0.7, 0.5, 0.3), TILTED, 2),
    ],
    # centred on a voxel corner, far below half a voxel wide
    "sub-voxel-between-centres": [
        ((0.0, 0.5, -0.5), (0.04, 0.06, 0.03), TILTED, 3),
        ((1.25, 1.25, 0.125), (0.05, 0.05, 0.05), IDENTITY, 4),
    ],
    "coincident-classes": [
        ((0.3, -0.2, 0.1), (1.0, 0.6, 0.4), TILTED, 2),
        ((0.3, -0.2, 0.1), (1.0, 0.6, 0.4), TILTED, 4),
    ],
}

# dump_scene sha256 of the three benchmark workloads' scenes, recorded on the dense truth pass
WORKLOAD_OVERRIDES = {
    "occ3d": {"preset": "occ3d", "smoothing": True, "blob_min": 8, "blob_max": 8},
    "dense-grid": {
        "preset": "synthetic",
        "gaussian_count": 25600,
        "grid_dims": (256, 256, 32),
        "grid_origin": (-51.2, -51.2, -2.0),
        "grid_voxel": (0.4, 0.4, 0.25),
        "plane_shape": (128, 128),
        "camera_shape": (64, 96),
        "truncation_sigmas": 3.0,
        "blob_min": 8,
        "blob_max": 8,
    },
    "small": {"preset": "synthetic", "blob_min": 8, "blob_max": 8},
}
SCENE_SHA256 = {
    ("occ3d", 3): "811ad102400117ca548856cb32dd9b7d21e15985058d132c22e124bf44000d13",
    ("occ3d", 7): "72122a1d15ef6ff9a68aad3b1c7964fb16bb3fe7a21b3c290b11ee6580388f92",
    ("dense-grid", 3): "ca36bf41630e88af7cd2ecb77769a000852a5282972ac5e431e4da91b2526462",
    ("dense-grid", 7): "82068adb0a282332a3850aa9694695e85fbe900ff73c3dff393b836bf4625961",
    ("small", 3): "1a2f7dde6732dbb5cce637a20f7a3bfabfef6b443d650c681efc1aeb5ca0d995",
    ("small", 7): "e8dfe28f9c9519400cde8b55cb0f6aed3f5b25569d0b1c58e8308ae612e8337e",
}


class TestBlobTruth:
    """The boxed truth pass labels every voxel as the dense pass does."""

    @staticmethod
    def config(taxonomy, threshold):
        return SceneConfig(grid=BOX_GRID, taxonomy=taxonomy, feature_width=16, truth_threshold=threshold)

    @staticmethod
    def assert_matches_reference(config, centroids, scales, rotations, classes):
        blobs = tuple(np.asarray(a, dtype=np.float64) for a in (centroids, scales, rotations))
        classes = np.asarray(classes, dtype=np.int64)
        fast = _blob_truth(config, *blobs, classes).labels
        dense = reference_blob_truth(config, *blobs, classes).labels
        np.testing.assert_array_equal(fast, dense)
        return fast

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_small_fixture_scene(self, small_scene, seed):
        scene = generate_scene(small_scene.config, seed)
        labels = self.assert_matches_reference(
            scene.config, scene.blob_centroids, scene.blob_scales, scene.blob_rotations, scene.blob_classes
        )
        np.testing.assert_array_equal(scene.truth.labels, labels)

    @pytest.mark.parametrize("threshold", [1e-6, 0.1, 0.9])
    @pytest.mark.parametrize("case", sorted(BLOB_SETS))
    def test_hand_built_blobs(self, small_taxonomy, case, threshold):
        labels = self.assert_matches_reference(self.config(small_taxonomy, threshold), *zip(*BLOB_SETS[case]))
        if case == "coincident-classes":
            # equal densities everywhere: the first blob wins every voxel it claims
            assert set(np.unique(labels)) == {BLOB_SETS[case][0][3], small_taxonomy.empty_id}

    def test_every_face_overhung(self, small_taxonomy):
        labels = self.assert_matches_reference(self.config(small_taxonomy, 1e-6), *zip(*BLOB_SETS["overhanging-faces"]))
        occupied = labels != small_taxonomy.empty_id
        for axis in range(3):
            assert np.take(occupied, 0, axis=axis).any() and np.take(occupied, -1, axis=axis).any()

    @pytest.mark.parametrize(
        "axis,steps,scale",
        [(0, 5, 1.45), (0, 6, 1.35), (1, 5, 1.2), (1, 5, 1.35), (2, 1, 0.7), (2, 3, 1.0), (2, 4, 0.75), (2, 6, 0.55)],
    )
    def test_threshold_at_a_voxel_centre(self, small_taxonomy, axis, steps, scale):
        """The threshold is the density at the voxel ``steps`` voxels from the
        centroid along ``axis``, so that voxel lies on the box edge up to
        rounding: in these cases the one-voxel pad is what keeps it."""
        centroid = voxel_centers(BOX_GRID)[7, 8, 8]
        scales = np.array([scale, 0.8 * scale, 1.3 * scale])
        inv = np.linalg.inv(make_covariance(scales, IDENTITY))
        d = voxel_centers(BOX_GRID) - centroid
        edge = [7, 8, 8]
        edge[axis] += steps
        threshold = float(np.exp(-0.5 * np.einsum("...i,ij,...j->...", d, inv, d))[tuple(edge)])
        labels = self.assert_matches_reference(
            self.config(small_taxonomy, threshold), [centroid], [scales], [IDENTITY], [1]
        )
        assert labels[tuple(edge)] == 1

    @pytest.mark.parametrize("workload,seed", sorted(SCENE_SHA256))
    def test_workload_scene_bytes_pinned(self, workload, seed):
        config = presets.resolve_config(WORKLOAD_OVERRIDES[workload]).scene_config
        assert hashlib.sha256(dump_scene(generate_scene(config, seed))).hexdigest() == SCENE_SHA256[workload, seed]


class TestSceneWrite:
    """A scene is made in the layout it keeps and written one section at a time."""

    def test_generate_peak_is_what_the_scene_keeps(self, small_taxonomy):
        tracemalloc.start()
        try:
            scene = generate_scene(large_config(small_taxonomy), seed=5)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= 2 * 8 * 2**20  # the planes, as float64
        assert peak <= kept + 6 * 2**20  # no float32 copy and no second layout of the planes

    def test_save_peak_is_one_section(self, large_scene, tmp_path):
        scene, _, data = large_scene
        tracemalloc.start()
        try:
            save_scene(scene, tmp_path / "scene.gscn")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) >= 10 * 2**20
        assert peak <= 4 * 2**20  # over what the scene keeps: never the whole file

    @pytest.mark.parametrize("workload,seed", sorted(SCENE_SHA256))
    def test_workload_file_is_dump_scene(self, workload, seed, tmp_path):
        scene = generate_scene(presets.resolve_config(WORKLOAD_OVERRIDES[workload]).scene_config, seed)
        path = tmp_path / "scene.gscn"
        save_scene(scene, path)
        assert path.read_bytes() == dump_scene(scene)


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


def assert_blob_law(scene):
    """Splatted blob primitives carry the truth label on every voxel that at most one blob box covers."""
    arrays, sigmas = blob_primitives(scene)
    spec, threshold = scene.config.grid, scene.config.truth_threshold
    assert np.exp(-(sigmas**2) / 2) < threshold <= np.exp(-((sigmas - 1) ** 2) / 2)
    grid = splat_arrays(arrays, spec, sigmas, occupancy_threshold=threshold, threads=2)
    inputs = head._splat_inputs(arrays, spec, sigmas)
    cover = np.zeros(spec.dims, dtype=np.int64)
    for lo, hi in zip(inputs.lo, inputs.hi):
        cover[lo[0] : hi[0] + 1, lo[1] : hi[1] + 1, lo[2] : hi[2] + 1] += 1
    single = cover <= 1
    differ = np.argwhere(single & (grid.labels != scene.truth.labels))
    assert len(differ) == 0, f"{len(differ)} singly covered voxels differ from the truth, first {differ[:8].tolist()}"
    occupied = scene.truth.labels != scene.config.taxonomy.empty_id
    assert np.count_nonzero(single & occupied) > 0
    return np.count_nonzero(~single & (grid.labels != scene.truth.labels))


class TestBlobLaw:
    def test_small_scene(self, small_scene):
        assert_blob_law(small_scene)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_synthetic_preset_with_overlaps(self, seed):
        config = presets.resolve_config({"preset": "synthetic", "blob_min": 8, "blob_max": 8, "seed": seed})
        scene = generate_scene(config.scene_config, seed)
        # overlapping boxes do change labels here: the law holds only where at most one box covers
        assert assert_blob_law(scene) > 0


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
