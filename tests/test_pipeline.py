import hashlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from gaussocc import head, lifting, metrics, pipeline, smoothing
from gaussocc.cli import main
from gaussocc.core import NUSCENES_CLASS_NAMES, ClassTaxonomy, GridSpec, SemanticOccupancyGrid
from gaussocc.errors import ConfigurationError, LabelError, SplatWorkerError
from gaussocc.formats import load_grid, save_bundle
from gaussocc.harness import generate_scene, oracle_lovasz_per_class, save_scene
from gaussocc.metrics import lovasz_per_class, weighted_ce
from gaussocc.params import ParameterBundle, build_parameter_bundle, declared_parameters
from gaussocc.pipeline import derive_seed, run_pipeline, score_grid
from gaussocc.presets import parse_config_file, resolve_config

SMALL_RUN = {
    "preset": "synthetic",
    "gaussian_count": 96,
    "grid_dims": (16, 16, 8),
    "plane_shape": (8, 12),
    "camera_shape": (16, 24),
    "seed": 5,
}


def small_config(tmp_path, **overrides):
    merged = dict(SMALL_RUN)
    merged["out"] = str(tmp_path / overrides.pop("subdir", "run"))
    merged.update(overrides)
    return resolve_config(merged)


def record_forks(monkeypatch):
    """Bounds of every ``head._fork_slabs`` call that forks (more than one slab), in call order."""
    calls = []
    real = head._fork_slabs

    def recorded(bounds, fill, *args):
        if len(bounds) > 2:  # one slab runs in-process
            calls.append(list(bounds))
        return real(bounds, fill, *args)

    monkeypatch.setattr(head, "_fork_slabs", recorded)
    return calls


def run_counting_workers(tmp_path, monkeypatch, **overrides):
    """Run the pipeline; return its manifest and the number of splat workers that ran."""
    forks = record_forks(monkeypatch)
    result = run_pipeline(small_config(tmp_path, **overrides))
    return result.manifest, len(forks[0]) - 1 if forks else 1


class TestConfigResolution:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"not_a_key": 1})
        assert info.value.field == "not_a_key"

    def test_zero_gaussians_names_field(self):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"gaussian_count": 0})
        assert info.value.field == "gaussian_count"

    def test_single_depth_chunk_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"depth_chunks": 1})
        assert info.value.field == "depth_chunks"

    def test_bad_fusion_mode(self):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"fusion_mode": "sum"})
        assert info.value.field == "fusion_mode"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("plane_shape", "16 24 5"),
            ("camera_shape", "32"),
            ("noise_sigma", -1.0),
            ("noise_sigma", "nan"),
            ("truncation_sigmas", "nan"),
            ("truncation_sigmas", "inf"),
            ("occupancy_threshold", "nan"),
            ("occupancy_threshold", "inf"),
            ("occupancy_threshold", 0),
            ("occupancy_threshold", -1),
            ("grid_dims", "256 256"),
            ("grid_voxel", "0 0.5 0.5"),
            ("grid_origin", "nan 0 0"),
            ("blob_min", 0),
            ("blob_max", 2),
        ],
    )
    def test_malformed_value_names_field(self, key, value):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({key: value})
        assert info.value.field == key

    def test_preset_defaults(self):
        cfg = resolve_config({"preset": "openocc"})
        assert cfg.grid.dims == (512, 512, 40)
        assert cfg.gaussian_count == 25600
        assert cfg.taxonomy.c_total == 18
        kitti = resolve_config({"preset": "kitti"})
        assert kitti.grid.dims == (256, 256, 32)
        assert kitti.gaussian_count == 38400
        assert kitti.taxonomy.c_sem == 19
        occ3d = resolve_config({"preset": "occ3d"})
        assert occ3d.gaussian_count == 12800

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("preset = synthetic\nseed = 3  # comment\ngaussian_count = 10\n")
        parsed = parse_config_file(cfg_file)
        assert parsed == {"preset": "synthetic", "seed": "3", "gaussian_count": "10"}
        cfg = resolve_config(overrides={"gaussian_count": 20}, file_overrides=parsed)
        assert cfg.gaussian_count == 20
        assert cfg.seed == 3

    def test_hash_tracks_config(self, tmp_path):
        a = small_config(tmp_path)
        b = small_config(tmp_path, gaussian_count=97)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == small_config(tmp_path).config_hash()

    def test_derive_seed_stable(self):
        assert derive_seed(7, "anchors") == derive_seed(7, "anchors")
        assert derive_seed(7, "anchors") != derive_seed(7, "scene")


class TestRunPipeline:
    def test_artifacts_written(self, tmp_path):
        result = run_pipeline(small_config(tmp_path))
        assert result.grid_path.exists()
        assert result.metrics_path.exists()
        assert result.bev_path.exists()
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["config_hash"] == small_config(tmp_path).config_hash()
        for stage in ("scene", "weights", "anchors", "lifting", "smoothing", "fusion", "head", "splat", "eval", "emit"):
            assert stage in manifest["stage_timings_s"]
        grid = load_grid(result.grid_path)
        assert grid.labels.shape == (16, 16, 8)
        text = result.metrics_path.read_text()
        assert "mIoU" in text and "loss.total" in text

    def test_manifest_reports_peak_rss(self, tmp_path):
        result = run_pipeline(small_config(tmp_path))
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["peak_rss_mb"] > 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_manifest_reports_splat_worker_peak_rss(self, tmp_path, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setenv("GOC_THREADS", "2")
        forked = record_forks(monkeypatch)
        result = run_pipeline(small_config(tmp_path))
        assert forked == [[0, 8, 16]]  # two splat workers; the eval's 16 planes stay in-process
        assert result.manifest["peak_rss_children_mb"] > 0

    def test_manifest_reports_health(self, tmp_path):
        result = run_pipeline(small_config(tmp_path))
        health = json.loads(result.manifest_path.read_text())["health"]
        labels = load_grid(result.grid_path).labels
        expected = np.bincount(labels.reshape(-1), minlength=18)
        assert health["predicted_class_histogram"] == expected.tolist()
        assert health["occupied_fraction"] == np.count_nonzero(labels != 17) / labels.size

    def test_deterministic_across_runs(self, tmp_path):
        a = run_pipeline(small_config(tmp_path, subdir="a"))
        names = ("grid_path", "metrics_path", "bev_path")
        before = {name: getattr(a, name).read_bytes() for name in names}
        b = run_pipeline(small_config(tmp_path, subdir="b"))
        again = run_pipeline(small_config(tmp_path, subdir="a"))  # a re-run into a's directory
        for run in (b, again):
            assert run.manifest["outputs"]["grid_digest"] == a.manifest["outputs"]["grid_digest"]
            assert {name: getattr(run, name).read_bytes() for name in names} == before

    def test_grid_digest_is_sha256_of_file(self, tmp_path):
        result = run_pipeline(small_config(tmp_path))
        digest = hashlib.sha256(result.grid_path.read_bytes()).hexdigest()
        assert result.manifest["outputs"]["grid_digest"] == digest
        assert json.loads(result.manifest_path.read_text())["outputs"]["grid_digest"] == digest

    def test_rerun_replaces_outputs(self, tmp_path):
        first = run_pipeline(small_config(tmp_path))
        paths = (first.grid_path, first.metrics_path, first.bev_path, first.manifest_path)
        fds = [os.open(path, os.O_RDONLY) for path in paths]
        try:
            run_pipeline(small_config(tmp_path))
            # each output is a new file; the open ones were unlinked, not truncated
            assert [os.fstat(fd).st_nlink for fd in fds] == [0, 0, 0, 0]
        finally:
            for fd in fds:
                os.close(fd)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_thread_cap_respects_env(self, tmp_path, monkeypatch):
        # 16 x-planes are two columns of 8x8x8 tiles, 8 x-planes one: the
        # splat runs at most that many workers, and the manifest says so
        monkeypatch.setattr(head, "_usable_cores", lambda: 4)
        monkeypatch.setenv("GOC_THREADS", "3")
        manifest, workers = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], workers) == (2, 3, 2)
        manifest, workers = run_counting_workers(tmp_path, monkeypatch, grid_dims=(8, 16, 8), subdir="x8")
        assert (manifest["threads"], manifest["threads_requested"], workers) == (1, 3, 1)
        monkeypatch.setenv("GOC_THREADS", "bogus")
        with pytest.raises(ConfigurationError):
            run_pipeline(small_config(tmp_path))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_thread_cap_clamped_to_usable_cores(self, tmp_path, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 1)
        monkeypatch.setenv("GOC_THREADS", "6")
        manifest, workers = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], workers) == (1, 6, 1)
        monkeypatch.delenv("GOC_THREADS")  # unset: 8 are requested
        manifest, workers = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], workers) == (1, 8, 1)
        monkeypatch.setattr(head, "_usable_cores", lambda: 4)
        monkeypatch.setenv("GOC_THREADS", str(10**9))  # no worker is started for the requested value
        manifest, workers = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], workers) == (2, 10**9, 2)

    def test_manifest_reports_head_threads(self, tmp_path, monkeypatch):
        # 96 anchors of width 32 reach a floor of 96 x 32: the planes run on three threads only with
        # two threads requested, and the grid is the same either way
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setattr(head, "_PLANE_THREAD_VALUES", 96 * 32)
        threads_seen = set()
        real = head._refine_plane

        def recorded(*args):
            threads_seen.add(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(head, "_refine_plane", recorded)
        digests = []
        for requested, floor, want in (("2", 96 * 32, 3), ("1", 96 * 32, 1), ("2", 96 * 32 + 1, 1)):
            monkeypatch.setenv("GOC_THREADS", requested)
            monkeypatch.setattr(head, "_PLANE_THREAD_VALUES", floor)
            threads_seen.clear()
            manifest = run_pipeline(small_config(tmp_path, subdir=f"t{requested}-{floor}")).manifest
            assert manifest["head_threads"] == want
            assert (threading.get_ident() in threads_seen) == (want == 1)
            digests.append(manifest["outputs"]["grid_digest"])
        assert len(set(digests)) == 1

    def test_fusion_modes_change_output(self, tmp_path):
        adaptive = run_pipeline(small_config(tmp_path, subdir="ad", fusion_mode="adaptive"))
        addition = run_pipeline(small_config(tmp_path, subdir="ad2", fusion_mode="addition"))
        assert adaptive.manifest["outputs"]["grid_digest"] != addition.manifest["outputs"]["grid_digest"]

    def test_smoothing_flag_changes_output(self, tmp_path):
        off = run_pipeline(small_config(tmp_path, subdir="s0", smoothing=False))
        on = run_pipeline(small_config(tmp_path, subdir="s1", smoothing=True))
        assert off.manifest["outputs"]["grid_digest"] != on.manifest["outputs"]["grid_digest"]

    def test_smoothing_off_skips_stage(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("smooth_features ran with smoothing off")

        monkeypatch.setattr(smoothing, "smooth_features", refuse)
        result = run_pipeline(small_config(tmp_path, smoothing=False))
        assert "smoothing" in result.manifest["stage_timings_s"]

    def test_scene_depth_planes_must_match_model(self, tmp_path):
        six = small_config(tmp_path, depth_planes=6)
        path = tmp_path / "six.gscn"
        save_scene(generate_scene(six.scene_config, 0), path)
        with pytest.raises(ConfigurationError, match="depth planes") as info:
            run_pipeline(small_config(tmp_path, scene=str(path)))
        assert info.value.field == "scene"

    def test_scene_grid_must_match_config(self, tmp_path):
        coarse = small_config(tmp_path, grid_dims=(8, 8, 8))
        path = tmp_path / "coarse.gscn"
        save_scene(generate_scene(coarse.scene_config, 0), path)
        with pytest.raises(ConfigurationError, match="grid") as info:
            run_pipeline(small_config(tmp_path, scene=str(path)))
        assert info.value.field == "scene"

    @pytest.mark.parametrize("scene_overrides", [
        {"grid_origin": (-7.0, -8.0, -2.0)},  # the synthetic preset's origin, shifted 1 m in x
        {"grid_voxel": (0.5, 0.5, 0.5)},
        {"preset": "kitti", "grid_origin": (-8.0, -8.0, -2.0), "grid_voxel": (0.5, 0.5, 0.25),
         "feature_width": 32, "state_width": 8, "cameras": 2},
    ])
    def test_scene_refused_before_any_stage(self, tmp_path, monkeypatch, scene_overrides):
        # without the check, a shifted grid ran every stage and failed in
        # class_iou, and a KITTI-taxonomy scene failed after the splat
        other = small_config(tmp_path, **scene_overrides)
        path = tmp_path / "other.gscn"
        save_scene(generate_scene(other.scene_config, 0), path)

        def refuse(*args, **kwargs):
            raise AssertionError("lift_lidar ran on a mismatched scene")

        monkeypatch.setattr(lifting, "lift_lidar", refuse)
        with pytest.raises(ConfigurationError, match="scene") as info:
            run_pipeline(small_config(tmp_path, scene=str(path)))
        assert info.value.field == "scene"
        assert not (tmp_path / "run").exists()

    def test_scene_feature_width_must_match_model(self, tmp_path):
        wide = small_config(tmp_path, feature_width=48)
        path = tmp_path / "wide.gscn"
        save_scene(generate_scene(wide.scene_config, 0), path)
        with pytest.raises(ConfigurationError, match="feature width") as info:
            run_pipeline(small_config(tmp_path, scene=str(path)))
        assert info.value.field == "scene"

    def test_missing_weights_file(self, tmp_path):
        cfg = small_config(tmp_path, weights=str(tmp_path / "missing.gocw"))
        with pytest.raises(OSError, match="missing.gocw"):
            run_pipeline(cfg)

    def test_grid_probabilities_normalized(self, small_grid):
        rng = np.random.default_rng(6)
        probs = metrics.probability_rows(rng.uniform(0, 0.3, size=small_grid.dims + (17,)))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)
        # a voxel with zero semantic mass is all empty-class probability
        empty_probs = metrics.probability_rows(np.zeros(small_grid.dims + (17,)))
        np.testing.assert_allclose(empty_probs[..., 17], 1.0)

    def test_grid_probabilities_bitwise_equal_to_concatenate_formula(self, small_grid):
        rng = np.random.default_rng(7)
        # per-voxel mass from 0 to about 2.5: rows with and without left-over empty mass
        mass = rng.uniform(0, 1, size=small_grid.dims + (1,))
        scores = rng.uniform(0, 0.3, size=small_grid.dims + (17,)) * mass
        empty = np.maximum(1.0 - scores.sum(axis=-1), 0.0)
        concatenated = np.concatenate([scores, empty[..., None]], axis=-1)
        expected = concatenated / np.maximum(concatenated.sum(axis=-1, keepdims=True), 1e-12)
        probs = metrics.probability_rows(scores)
        assert probs.dtype == expected.dtype and probs.shape == expected.shape
        assert probs.tobytes() == expected.tobytes()
        assert np.any(empty > 0) and np.any(empty == 0)


SCORE_TAXONOMY = ClassTaxonomy(names=NUSCENES_CLASS_NAMES[:4], class_weights=np.array([0.5, 1.5, 2.0, 0.75, 1.25]))


def grid_of_scores(scores):
    dims = scores.shape[:3]
    spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=dims)
    return SemanticOccupancyGrid(spec=spec, labels=np.zeros(dims, dtype=np.uint8), scores=scores)


def tied_scores(rng, dims):
    """Scores drawn from five rows on multiples of 1/8, so many voxels share a
    probability row and tie at each class threshold, on both sides of every
    slab boundary."""
    patterns = rng.integers(0, 9, size=(5, SCORE_TAXONOMY.c_sem)) / 8.0
    return patterns[rng.integers(0, 5, size=dims)]


def assert_streamed_equals_whole(grid, labels, monkeypatch):
    """For slabs of one x-plane, three x-planes (uneven) and the whole volume:
    CE and every Lovász loss bitwise equal to the whole-array functions, and
    Lovász within 1e-12 of the full-sort oracle."""
    probs = metrics.probability_rows(grid.scores)
    ce = weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights)
    lovasz = lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
    oracle = oracle_lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
    x, plane = grid.spec.dims[0], grid.spec.dims[1] * grid.spec.dims[2]
    starts = []
    add = metrics.LovaszCandidates.add

    def recording_add(self, start, rows):
        starts.append(start)
        return add(self, start, rows)

    monkeypatch.setattr(metrics.LovaszCandidates, "add", recording_add)
    for slab_bytes, planes in ((1, 1), (3 * plane * 8 * SCORE_TAXONOMY.c_total, 3), (2**40, x)):
        monkeypatch.setattr(pipeline, "_SLAB_BYTES", slab_bytes)
        starts.clear()
        got_ce, got_lovasz = score_grid(grid, labels, SCORE_TAXONOMY)
        assert starts == list(range(0, x * plane, planes * plane))
        assert got_ce == ce
        assert got_lovasz == lovasz
        assert got_lovasz.keys() == oracle.keys()
        for c, loss in oracle.items():
            assert abs(got_lovasz[c] - loss) <= 1e-12, (c, got_lovasz[c], loss)
    return lovasz


class TestScoreGrid:
    """The x-slab eval against the whole-volume losses and the full-sort oracle."""

    def test_tied_volumes(self, monkeypatch):
        rng = np.random.default_rng(21)
        for _ in range(20):
            grid = grid_of_scores(tied_scores(rng, (7, 3, 2)))
            labels = rng.integers(0, SCORE_TAXONOMY.c_total, size=grid.spec.dims)
            assert_streamed_equals_whole(grid, labels, monkeypatch)

    def test_class_present_only_in_argmax(self, monkeypatch):
        rng = np.random.default_rng(22)
        scores = tied_scores(rng, (7, 3, 2))
        scores[4, 1, 0] = [0.0, 0.0, 0.0, 1.0]  # class 3 predicted here, never in the truth
        grid = grid_of_scores(scores)
        labels = rng.integers(0, 3, size=grid.spec.dims)
        lovasz = assert_streamed_equals_whole(grid, labels, monkeypatch)
        assert lovasz[3] == 1.0

    def test_ties_at_threshold_straddle_slab_boundaries(self, monkeypatch):
        # two voxels per x-plane; class 0 has foreground at voxels 1 and 5 with
        # p_0 = 0.5, so t_0 = 0.5, and background ties p_0 = 0.5 at voxels 2
        # and 6, each in the slab after a foreground voxel's
        scores = np.zeros((4, 2, 1, 4))
        scores[..., 1] = 0.75
        flat = scores.reshape(8, 4)
        flat[[1, 2, 5, 6]] = [0.5, 0.25, 0.0, 0.0]
        flat[3] = [0.375, 0.5, 0.0, 0.0]  # below the threshold: not a candidate
        labels = np.full((4, 2, 1), 1)
        labels.reshape(-1)[[1, 5]] = 0
        sorted_lengths = []
        gradient = metrics._lovasz_gradient

        def recording_gradient(fg_sorted):
            sorted_lengths.append(len(fg_sorted))
            return gradient(fg_sorted)

        grid = grid_of_scores(scores)
        lovasz = assert_streamed_equals_whole(grid, labels, monkeypatch)
        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)
        monkeypatch.setattr(metrics, "_lovasz_gradient", recording_gradient)
        assert score_grid(grid, labels, SCORE_TAXONOMY)[1] == lovasz
        assert sorted_lengths[0] == 4  # voxels 1, 2, 5 and 6

    def test_truth_without_foreground(self, monkeypatch):
        rng = np.random.default_rng(23)
        grid = grid_of_scores(tied_scores(rng, (7, 3, 2)))
        labels = np.full(grid.spec.dims, SCORE_TAXONOMY.empty_id)
        lovasz = assert_streamed_equals_whole(grid, labels, monkeypatch)
        probs = metrics.probability_rows(grid.scores).reshape(-1, SCORE_TAXONOMY.c_total)
        for c, loss in lovasz.items():
            assert loss == probs[:, c].max()

    def test_label_out_of_range(self):
        grid = grid_of_scores(tied_scores(np.random.default_rng(24), (7, 3, 2)))
        labels = np.zeros(grid.spec.dims, dtype=np.int64)
        labels[6, 2, 1] = SCORE_TAXONOMY.c_total
        with pytest.raises(LabelError):
            score_grid(grid, labels, SCORE_TAXONOMY)

    def test_score_channels_must_match_taxonomy(self):
        # the class count is the score channels plus empty: 3 or 5 channels
        # against a 4-class taxonomy is a typed fault, not an index error
        rng = np.random.default_rng(26)
        labels = rng.integers(0, 4, size=(7, 3, 2))
        for channels in (3, 5):
            grid = grid_of_scores(rng.uniform(0.0, 0.3, size=(7, 3, 2, channels)))
            with pytest.raises(LabelError, match="one weight per class"):
                score_grid(grid, labels, SCORE_TAXONOMY)

    def test_peak_allocation_far_below_probability_volume(self, taxonomy):
        rng = np.random.default_rng(25)
        dims = (256, 64, 16)
        grid = grid_of_scores(rng.uniform(0.0, 0.1, size=dims + (taxonomy.c_sem,)))
        labels = np.where(rng.uniform(size=dims) < 0.9, taxonomy.empty_id, rng.integers(0, 17, size=dims))
        volume_bytes = grid.labels.size * taxonomy.c_total * 8
        tracemalloc.start()
        try:
            score_grid(grid, labels, taxonomy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < volume_bytes / 4, (peak, volume_bytes)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestScoreGridWorkers:
    """The all-voxel pass in forked workers, one per range of x-planes."""

    # 24 x-planes: with one-plane slabs, up to three workers of 8 slabs each
    DIMS = (24, 3, 2)

    @pytest.mark.parametrize("workers, bounds", [
        (1, None), (2, None), (3, None), (2, [0, 5, 24]), (3, [0, 1, 20, 24]),
    ])
    def test_bitwise_equal_for_any_workers_and_ranges(self, monkeypatch, workers, bounds):
        rng = np.random.default_rng(40 + workers)
        grid = grid_of_scores(tied_scores(rng, self.DIMS))
        labels = rng.choice([0, 1, 2, SCORE_TAXONOMY.empty_id], size=self.DIMS)
        probs = metrics.probability_rows(grid.scores)
        ce = weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights)
        lovasz = lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
        assert 3 in lovasz  # predicted, never true: its loss is the folded max p_3
        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)
        monkeypatch.setattr(head, "_usable_cores", lambda: workers)
        if bounds is not None:
            monkeypatch.setattr(head, "_slab_bounds", lambda x_dim, slabs: bounds)
        forks = record_forks(monkeypatch)
        assert score_grid(grid, labels, SCORE_TAXONOMY, threads=8) == (ce, lovasz)
        assert forks == ([] if workers == 1 else [bounds or head._slab_bounds(24, workers)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_threshold_set_in_another_workers_range(self, monkeypatch):
        # class 0's smallest foreground error (voxel 22, p_0 = 0.9) lies in
        # the last of three ranges; every background voxel has p_0 = 0.3, so
        # with the global t_0 = 0.1 each is a candidate, while the first
        # range's own foreground (voxel 1, p_0 = 0.5) would have kept out
        # those of its range
        scores = np.zeros(self.DIMS + (SCORE_TAXONOMY.c_sem,))
        flat = scores.reshape(-1, SCORE_TAXONOMY.c_sem)
        flat[:] = [0.3, 0.6, 0.0, 0.0]
        labels = np.ones(self.DIMS, dtype=np.int64)
        for voxel, p0 in ((1, 0.5), (22 * 6, 0.9)):
            flat[voxel] = [p0, 1.0 - p0, 0.0, 0.0]
            labels.reshape(-1)[voxel] = 0
        grid = grid_of_scores(scores)
        probs = metrics.probability_rows(grid.scores)
        lovasz = lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
        sorted_lengths = []
        gradient = metrics._lovasz_gradient

        def recording_gradient(fg_sorted):
            sorted_lengths.append(len(fg_sorted))
            return gradient(fg_sorted)

        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)
        monkeypatch.setattr(head, "_usable_cores", lambda: 3)
        monkeypatch.setattr(metrics, "_lovasz_gradient", recording_gradient)
        forks = record_forks(monkeypatch)
        ce, got = score_grid(grid, labels, SCORE_TAXONOMY, threads=3)
        assert forks == [[0, 8, 16, 24]]
        assert got == lovasz
        assert ce == weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights)
        assert sorted_lengths[0] == grid.labels.size  # class 0: every voxel
        oracle = oracle_lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
        assert abs(got[0] - oracle[0]) <= 1e-12

    def test_failed_worker_raises_after_every_child_is_reaped(self, monkeypatch):
        rng = np.random.default_rng(44)
        grid = grid_of_scores(tied_scores(rng, self.DIMS))
        labels = rng.integers(0, SCORE_TAXONOMY.c_total, size=self.DIMS)
        add = metrics.CrossEntropyTerms.add
        plane = self.DIMS[1] * self.DIMS[2]

        def failing(self, start, probs):
            if start >= 8 * plane:
                raise RuntimeError("boom")
            add(self, start, probs)

        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setattr(head, "_slab_bounds", lambda x_dim, slabs: [0, 8, 24])
        monkeypatch.setattr(metrics.CrossEntropyTerms, "add", failing)
        with pytest.raises(SplatWorkerError, match=r"eval worker of x-slab \[8, 24\) failed: RuntimeError: boom") as info:
            score_grid(grid, labels, SCORE_TAXONOMY, threads=2)
        assert info.value.slab == (8, 24)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_count_needs_eight_slabs_each(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 4)
        # small: 32x32x16 at 18 classes is 14 x-planes per ~1 MB slab, 3 slabs
        assert pipeline._eval_workers(2, (32, 32, 16), 18) == 1
        # dense-grid: one x-plane per slab, 256 slabs; the splat's clamp decides
        assert pipeline._eval_workers(2, (256, 256, 32), 18) == 2
        assert pipeline._eval_workers(8, (256, 256, 32), 18) == 4
        assert pipeline._eval_workers(1, (256, 256, 32), 18) == 1
        # 24 one-plane slabs: three workers, not the four the cores allow
        assert pipeline._eval_workers(8, (24, 256, 32), 18) == 3
        assert pipeline._eval_workers(8, (15, 256, 32), 18) == 1

    def test_forked_run_leaves_no_child_and_same_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)  # one-plane slabs: the eval forks on 16 planes
        monkeypatch.setenv("GOC_THREADS", "1")
        alone = run_pipeline(small_config(tmp_path, subdir="alone"))
        assert (alone.manifest["threads"], alone.manifest["eval_workers"]) == (1, 1)
        monkeypatch.setenv("GOC_THREADS", "2")
        forks = record_forks(monkeypatch)
        forked = run_pipeline(small_config(tmp_path, subdir="forked"))
        assert forks == [[0, 8, 16], [0, 8, 16]]  # the splat, then the eval
        assert (forked.manifest["threads"], forked.manifest["eval_workers"]) == (2, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert forked.metrics_path.read_bytes() == alone.metrics_path.read_bytes()
        assert forked.manifest["outputs"]["grid_digest"] == alone.manifest["outputs"]["grid_digest"]

    def test_manifest_reports_one_worker_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)  # one-plane slabs: the eval forks on 16 planes
        monkeypatch.setenv("GOC_THREADS", "2")
        forked = run_pipeline(small_config(tmp_path, subdir="forked"))
        assert (forked.manifest["threads"], forked.manifest["eval_workers"]) == (2, 2)
        monkeypatch.delattr(os, "fork")  # every slab runs in-process, and the manifest says so
        alone = run_pipeline(small_config(tmp_path, subdir="alone"))
        assert (alone.manifest["threads"], alone.manifest["eval_workers"]) == (1, 1)
        assert alone.manifest["outputs"]["grid_digest"] == forked.manifest["outputs"]["grid_digest"]
        assert alone.metrics_path.read_bytes() == forked.metrics_path.read_bytes()

    def test_ranges_without_fork_equal_forked(self, monkeypatch):
        # with os.fork gone head._worker_count is 1, so the eval runs as one
        # in-process range, each slab gathered once and folded once
        rng = np.random.default_rng(45)
        grid = grid_of_scores(tied_scores(rng, self.DIMS))
        labels = rng.choice([0, 1, 2, SCORE_TAXONOMY.empty_id], size=self.DIMS)
        starts = []
        add = metrics.LovaszCandidates.add

        def recording_add(self, start, rows):
            starts.append(start)  # seen by the parent only for a range it ran itself
            return add(self, start, rows)

        monkeypatch.setattr(metrics.LovaszCandidates, "add", recording_add)
        monkeypatch.setattr(pipeline, "_SLAB_BYTES", 1)
        monkeypatch.setattr(head, "_usable_cores", lambda: 3)
        forks = record_forks(monkeypatch)
        forked = score_grid(grid, labels, SCORE_TAXONOMY, threads=3)
        assert forks == [[0, 8, 16, 24]] and starts == []
        monkeypatch.delattr(os, "fork")
        in_process = score_grid(grid, labels, SCORE_TAXONOMY, threads=3)
        assert forks == [[0, 8, 16, 24]]  # the forked run's ranges only
        assert starts == list(range(0, 24 * 6, 6))
        assert in_process == forked
        probs = metrics.probability_rows(grid.scores)
        assert forked == (weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights),
                          lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id))

    def test_small_preset_scores_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setenv("GOC_THREADS", "2")
        forks = []
        real = os.fork

        def counted():
            forks.append(1)
            return real()

        monkeypatch.setattr(os, "fork", counted)
        result = run_pipeline(resolve_config({"preset": "synthetic", "out": str(tmp_path / "small")}))
        assert result.manifest["threads"] == 2 and result.manifest["eval_workers"] == 1
        assert len(forks) == 2  # the splat's two x-slab workers only
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestCli:
    def test_run_and_eval_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cli_run"
        code = main([
            "run", "--preset", "synthetic", "--gaussians", "64", "--seed", "4",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "pred_grid.goc1").exists()
        code = main([
            "eval", "--pred", str(out / "pred_grid.goc1"), "--truth", str(out / "pred_grid.goc1"),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "mIoU\t1.000000" in text

    def test_synth_then_run_from_scene(self, tmp_path):
        scene_path = tmp_path / "scene.gscn"
        assert main(["synth", "--preset", "synthetic", "--seed", "8", "--scene-out", str(scene_path)]) == 0
        out = tmp_path / "from_scene"
        code = main([
            "run", "--preset", "synthetic", "--gaussians", "64", "--seed", "8",
            "--scene", str(scene_path), "--out", str(out),
        ])
        assert code == 0

    def test_weights_init_then_run(self, tmp_path):
        weights = tmp_path / "w.gocw"
        assert main(["weights-init", "--preset", "synthetic", "--seed", "2", "--weights-out", str(weights)]) == 0
        out = tmp_path / "with_weights"
        code = main([
            "run", "--preset", "synthetic", "--gaussians", "32", "--seed", "2",
            "--weights", str(weights), "--out", str(out),
        ])
        assert code == 0

    def test_sweep_emits_metric_files(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--preset", "synthetic", "--gaussians", "48", "--seed", "3",
            "--out", str(out), "--sweep-fusion", "addition,concatenation,adaptive",
        ])
        assert code == 0
        metric_files = sorted(out.glob("*/metrics.txt"))
        assert len(metric_files) == 3
        names = {p.parent.name for p in metric_files}
        assert names == {"g48_addition", "g48_concatenation", "g48_adaptive"}

    def test_degraded_scene_runs_end_to_end(self, tmp_path):
        from gaussocc.harness import DegradationConfig, degrade, generate_scene, save_scene

        cfg = small_config(tmp_path, subdir="degraded")
        scene = generate_scene(cfg.scene_config, derive_seed(cfg.seed, "scene"))
        rainy = degrade(
            scene,
            DegradationConfig(
                mode="rain", camera_noise_sigma=0.2, camera_dropout_fraction=0.1,
                lidar_noise_sigma=0.2, lidar_dropout_fraction=0.1, seed=17,
            ),
        )
        scene_path = tmp_path / "rainy.gscn"
        save_scene(rainy, scene_path)
        result = run_pipeline(small_config(tmp_path, subdir="degraded", scene=str(scene_path)))
        assert result.grid_path.exists()
        # supervision integrity: the degraded file still carries the clean truth
        np.testing.assert_array_equal(rainy.truth.labels, scene.truth.labels)

    def test_kitti_taxonomy_runs_end_to_end(self, tmp_path):
        cfg = resolve_config({
            "preset": "kitti",
            "gaussian_count": 64,
            "grid_dims": (16, 16, 8),
            "grid_origin": (0.0, -4.0, -2.0),
            "grid_voxel": (0.5, 0.5, 0.5),
            "feature_width": 32,
            "state_width": 4,
            "head_blocks": 1,
            "plane_shape": (8, 12),
            "camera_shape": (16, 24),
            "seed": 9,
            "out": str(tmp_path / "kitti"),
        })
        assert cfg.taxonomy.c_sem == 19
        result = run_pipeline(cfg)
        grid = load_grid(result.grid_path)
        assert grid.labels.max() <= 19

    def test_blocks_and_truncation_flags(self, tmp_path):
        out = tmp_path / "flags"
        code = main([
            "run", "--preset", "synthetic", "--gaussians", "48", "--seed", "1",
            "--blocks", "1", "--truncation", "4.5", "--smoothing", "on", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["head_blocks"] == "1"
        assert manifest["config"]["truncation_sigmas"] == "4.5"
        assert manifest["config"]["smoothing"] == "true"

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = main(["run", "--preset", "synthetic", "--gaussians", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "gaussian_count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flags, key",
        [
            ("", ["--truncation", "nan"], "truncation_sigmas"),
            ("plane_shape = 16 24 5", [], "plane_shape"),
            ("camera_shape = 32", [], "camera_shape"),
            ("noise_sigma = -1", [], "noise_sigma"),
            ("occupancy_threshold = nan", [], "occupancy_threshold"),
            ("occupancy_threshold = 0", [], "occupancy_threshold"),
            ("occupancy_threshold = -1", [], "occupancy_threshold"),
        ],
    )
    def test_malformed_value_exit_code(self, tmp_path, capsys, line, flags, key):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        code = main(["run", "--config", str(config), *flags, "--out", str(tmp_path / "z")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "z").exists()

    def test_single_depth_chunk_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("depth_chunks = 1\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "depth_chunks" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, stored", [("fusion.wq_l", (3, 3)), ("fusion.gate.b2", (1,))])
    def test_misshapen_weights_exit_code(self, tmp_path, capsys, path, stored):
        # a well-formed GOCW file whose one tensor has the wrong shape; without
        # the shape check at load, each fails mid-run with an untyped error
        model = resolve_config({"preset": "synthetic"}).model
        bundle = build_parameter_bundle(model, seed=2)
        entries = {p: bundle.raw(p) for p in bundle.paths()}
        entries[path] = np.zeros(stored, dtype=np.float32)
        weights = tmp_path / "bad.gocw"
        save_bundle(ParameterBundle(entries), weights)
        out = tmp_path / "out"
        code = main(["run", "--preset", "synthetic", "--gaussians", "32", "--weights", str(weights), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        expected = declared_parameters(model)[path].shape
        assert err.startswith("error: ") and path in err
        assert str(stored) in err and str(expected) in err
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["64,x", "64,"])
    def test_malformed_sweep_counts_exit_code(self, tmp_path, capsys, counts):
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "synthetic", "--gaussians", "48", "--out", str(out),
                     "--sweep-gaussians", counts, "--sweep-fusion", "addition"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "sweep_gaussians" in err and repr(counts) in err
        assert err.count("\n") == 1 and not out.exists()

    def test_sweep_refuses_bad_entry_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "synthetic", "--gaussians", "32", "--out", str(out),
                     "--sweep-gaussians", "32,0", "--sweep-fusion", "addition"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and "gaussian_count" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == "" and not out.exists()

    def test_config_not_utf8_exit_code(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed = 3\n# caf\xe9\n")  # latin-1, not UTF-8
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err and "byte 14" in err
        assert err.count("\n") == 1 and not (tmp_path / "out").exists()

    def test_unreadable_scene_exit_code(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "synthetic", "--scene", str(tmp_path / "nope.gscn"),
            "--out", str(tmp_path / "y"),
        ])
        assert code == 1
        assert "nope.gscn" in capsys.readouterr().err
        assert not (tmp_path / "y").exists()
