import json
import os
import tracemalloc

import numpy as np
import pytest

from gaussocc import head, metrics, pipeline, smoothing
from gaussocc.cli import main
from gaussocc.core import NUSCENES_CLASS_NAMES, ClassTaxonomy, GridSpec, SemanticOccupancyGrid
from gaussocc.errors import ConfigurationError, LabelError
from gaussocc.formats import load_grid
from gaussocc.harness import generate_scene, oracle_lovasz_per_class, save_scene
from gaussocc.metrics import lovasz_per_class, weighted_ce
from gaussocc.pipeline import derive_seed, grid_probabilities, run_pipeline, score_grid
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


def run_counting_workers(tmp_path, monkeypatch, **overrides):
    """Run the pipeline; return its manifest and the number of splat workers that ran."""
    slabs = []
    real = head._fork_slabs

    def recorded(bounds, fill):
        slabs.append(len(bounds) - 1)
        real(bounds, fill)

    monkeypatch.setattr(head, "_fork_slabs", recorded)
    result = run_pipeline(small_config(tmp_path, **overrides))
    return result.manifest, slabs[0] if slabs else 1


class TestConfigResolution:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"not_a_key": 1})
        assert info.value.field == "not_a_key"

    def test_zero_gaussians_names_field(self):
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"gaussian_count": 0})
        assert info.value.field == "gaussian_count"

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
        forked = []
        real = head._fork_slabs

        def recorded(bounds, fill):
            forked.append(bounds)
            real(bounds, fill)

        monkeypatch.setattr(head, "_fork_slabs", recorded)
        result = run_pipeline(small_config(tmp_path))
        assert forked == [[0, 8, 16]]  # two x-slab workers
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
        b = run_pipeline(small_config(tmp_path, subdir="b"))
        assert a.manifest["outputs"]["grid_digest"] == b.manifest["outputs"]["grid_digest"]
        assert a.grid_path.read_bytes() == b.grid_path.read_bytes()

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

    def test_missing_weights_file(self, tmp_path):
        cfg = small_config(tmp_path, weights=str(tmp_path / "missing.gocw"))
        with pytest.raises(OSError, match="missing.gocw"):
            run_pipeline(cfg)

    def test_grid_probabilities_normalized(self, small_grid):
        from gaussocc.core import SemanticOccupancyGrid

        rng = np.random.default_rng(6)
        scores = rng.uniform(0, 0.3, size=small_grid.dims + (17,))
        grid = SemanticOccupancyGrid(
            spec=small_grid, labels=np.zeros(small_grid.dims, dtype=np.uint8), scores=scores
        )
        probs = grid_probabilities(grid)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)
        # a voxel with zero semantic mass is all empty-class probability
        empty_probs = grid_probabilities(
            SemanticOccupancyGrid(
                spec=small_grid,
                labels=np.zeros(small_grid.dims, dtype=np.uint8),
                scores=np.zeros(small_grid.dims + (17,)),
            ),
        )
        np.testing.assert_allclose(empty_probs[..., 17], 1.0)

    def test_grid_probabilities_bitwise_equal_to_concatenate_formula(self, small_grid):
        from gaussocc.core import SemanticOccupancyGrid

        rng = np.random.default_rng(7)
        # per-voxel mass from 0 to about 2.5: rows with and without left-over empty mass
        mass = rng.uniform(0, 1, size=small_grid.dims + (1,))
        scores = rng.uniform(0, 0.3, size=small_grid.dims + (17,)) * mass
        grid = SemanticOccupancyGrid(
            spec=small_grid, labels=np.zeros(small_grid.dims, dtype=np.uint8), scores=scores
        )
        empty = np.maximum(1.0 - scores.sum(axis=-1), 0.0)
        concatenated = np.concatenate([scores, empty[..., None]], axis=-1)
        expected = concatenated / np.maximum(concatenated.sum(axis=-1, keepdims=True), 1e-12)
        probs = grid_probabilities(grid)
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
    probs = grid_probabilities(grid)
    ce = weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights)
    lovasz = lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
    oracle = oracle_lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
    x, plane = grid.spec.dims[0], grid.spec.dims[1] * grid.spec.dims[2]
    starts = []
    add = metrics.LovaszCandidates.add

    def recording_add(self, start, rows):
        starts.append(start)
        add(self, start, rows)

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
        probs = grid_probabilities(grid).reshape(-1, SCORE_TAXONOMY.c_total)
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

    def test_unreadable_scene_exit_code(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "synthetic", "--scene", str(tmp_path / "nope.gscn"),
            "--out", str(tmp_path / "y"),
        ])
        assert code == 1
        assert "nope.gscn" in capsys.readouterr().err
