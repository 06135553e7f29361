import json

import numpy as np
import pytest

from gaussocc.cli import main
from gaussocc.errors import ConfigurationError
from gaussocc.formats import load_grid
from gaussocc.pipeline import derive_seed, grid_probabilities, run_pipeline, thread_cap
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

    def test_deterministic_across_runs(self, tmp_path):
        a = run_pipeline(small_config(tmp_path, subdir="a"))
        b = run_pipeline(small_config(tmp_path, subdir="b"))
        assert a.manifest["outputs"]["grid_digest"] == b.manifest["outputs"]["grid_digest"]
        assert a.grid_path.read_bytes() == b.grid_path.read_bytes()

    def test_thread_cap_respects_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GOC_THREADS", "3")
        assert thread_cap() == 3
        result = run_pipeline(small_config(tmp_path))
        assert result.manifest["threads"] == 3
        monkeypatch.setenv("GOC_THREADS", "bogus")
        with pytest.raises(ConfigurationError):
            thread_cap()

    def test_fusion_modes_change_output(self, tmp_path):
        adaptive = run_pipeline(small_config(tmp_path, subdir="ad", fusion_mode="adaptive"))
        addition = run_pipeline(small_config(tmp_path, subdir="ad2", fusion_mode="addition"))
        assert adaptive.manifest["outputs"]["grid_digest"] != addition.manifest["outputs"]["grid_digest"]

    def test_smoothing_flag_changes_output(self, tmp_path):
        off = run_pipeline(small_config(tmp_path, subdir="s0", smoothing=False))
        on = run_pipeline(small_config(tmp_path, subdir="s1", smoothing=True))
        assert off.manifest["outputs"]["grid_digest"] != on.manifest["outputs"]["grid_digest"]

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
        probs = grid_probabilities(grid, 17)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)
        # a voxel with zero semantic mass is all empty-class probability
        empty_probs = grid_probabilities(
            SemanticOccupancyGrid(
                spec=small_grid,
                labels=np.zeros(small_grid.dims, dtype=np.uint8),
                scores=np.zeros(small_grid.dims + (17,)),
            ),
            17,
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
        probs = grid_probabilities(grid, 17)
        assert probs.dtype == expected.dtype and probs.shape == expected.shape
        assert probs.tobytes() == expected.tobytes()
        assert np.any(empty > 0) and np.any(empty == 0)


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

    def test_unreadable_scene_exit_code(self, tmp_path, capsys):
        code = main([
            "run", "--preset", "synthetic", "--scene", str(tmp_path / "nope.gscn"),
            "--out", str(tmp_path / "y"),
        ])
        assert code == 1
        assert "nope.gscn" in capsys.readouterr().err
