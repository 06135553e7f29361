import ast
import hashlib
import inspect
import json
import os
import platform
import tracemalloc

import numpy as np
import pytest

from gaussocc import fusion, harness, head, lifting, metrics, pipeline, smoothing, workers
from gaussocc.cli import _resolve, build_parser, main
from gaussocc.core import (
    NUSCENES_CLASS_NAMES,
    ClassTaxonomy,
    GridSpec,
    SemanticOccupancyGrid,
    init_anchors,
)
from gaussocc.errors import ConfigurationError, LabelError, WorkerError
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
    """Bounds of every ``workers.run`` call that forks (more than one slab), in call order."""
    calls = []
    real = workers.run

    def recorded(bounds, fill, *args):
        if len(bounds) > 2:  # one slab runs in-process
            calls.append(list(bounds))
        return real(bounds, fill, *args)

    monkeypatch.setattr(workers, "run", recorded)
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

    def test_fewer_gaussians_than_refiner_tokens_names_field(self):
        # the head refines the anchors as token sequences of at least head.MIN_REFINE_TOKENS
        with pytest.raises(ConfigurationError) as info:
            resolve_config({"gaussian_count": head.MIN_REFINE_TOKENS - 1})
        assert info.value.field == "gaussian_count"
        assert resolve_config({"gaussian_count": head.MIN_REFINE_TOKENS}).gaussian_count == 4

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

    @pytest.mark.parametrize("line, key", [("smoothing = maybe", "smoothing"), ("preset = nuscenes", "preset")])
    def test_config_file_value_names_key(self, tmp_path, line, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        with pytest.raises(ConfigurationError) as info:
            resolve_config(file_overrides=parse_config_file(cfg_file))
        assert info.value.field == key and line.split(" = ")[1] in str(info.value)

    def test_config_line_without_equals_names_line(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed = 3\nsmoothing on\n")
        with pytest.raises(ConfigurationError, match=r"run\.cfg:2: expected key = value"):
            parse_config_file(cfg_file)

    def test_smoothing_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("smoothing = on\n")
        run = ["run", "--config", str(cfg_file)]
        assert _resolve(build_parser().parse_args(run)).smoothing is True
        assert _resolve(build_parser().parse_args(run + ["--smoothing", "off"])).smoothing is False

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

    def test_free_heap_returned_before_the_scene_loads_and_after_it_drops(self, tmp_path, monkeypatch):
        # heap freed by earlier calls, and the dropped scene's camera planes,
        # stayed resident under the next peak, so a process's peak over many
        # calls moved with its heap layout
        if platform.libc_ver()[0] == "glibc":
            assert pipeline._malloc_trim is not None
        events = []
        load, refine = pipeline._load_or_generate_scene, head.run_head
        monkeypatch.setattr(pipeline, "_malloc_trim", lambda pad: events.append(("trim", pad)))
        monkeypatch.setattr(pipeline, "_load_or_generate_scene", lambda config: events.append("scene") or load(config))
        monkeypatch.setattr(head, "run_head", lambda *args, **kwargs: events.append("head") or refine(*args, **kwargs))
        run_pipeline(small_config(tmp_path))
        assert events == [("trim", 0), "scene", ("trim", 0), "head"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_manifest_reports_splat_worker_peak_rss(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
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
        monkeypatch.setattr(workers, "usable_cores", lambda: 4)
        monkeypatch.setenv("GOC_THREADS", "3")
        manifest, ran = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], ran) == (2, 3, 2)
        manifest, ran = run_counting_workers(tmp_path, monkeypatch, grid_dims=(8, 16, 8), subdir="x8")
        assert (manifest["threads"], manifest["threads_requested"], ran) == (1, 3, 1)
        monkeypatch.setenv("GOC_THREADS", "bogus")
        with pytest.raises(ConfigurationError):
            run_pipeline(small_config(tmp_path))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_thread_cap_clamped_to_usable_cores(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 1)
        monkeypatch.setenv("GOC_THREADS", "6")
        manifest, ran = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], ran) == (1, 6, 1)
        monkeypatch.delenv("GOC_THREADS")  # unset: 8 are requested
        manifest, ran = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], ran) == (1, 8, 1)
        monkeypatch.setattr(workers, "usable_cores", lambda: 4)
        monkeypatch.setenv("GOC_THREADS", str(10**9))  # no worker is started for the requested value
        manifest, ran = run_counting_workers(tmp_path, monkeypatch)
        assert (manifest["threads"], manifest["threads_requested"], ran) == (2, 10**9, 2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_manifest_reports_head_threads(self, tmp_path, monkeypatch):
        # 96 anchors of width 32 reach a floor of 96 x 32: the planes run in three forked workers only with
        # two threads requested, and the grid is the same either way
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        pids = workers.shared((len(head.PLANES),), np.int64)  # the process that last refined each plane
        real = head._refine_plane

        def recorded(block, plane, *args):
            pids[head.PLANES.index(plane)] = os.getpid()
            return real(block, plane, *args)

        monkeypatch.setattr(head, "_refine_plane", recorded)
        digests = []
        for requested, floor, want in (("2", 96 * 32, 3), ("1", 96 * 32, 1), ("2", 96 * 32 + 1, 1)):
            monkeypatch.setenv("GOC_THREADS", requested)
            monkeypatch.setattr(head, "_PLANE_WORKER_VALUES", floor)
            pids[:] = 0
            manifest = run_pipeline(small_config(tmp_path, subdir=f"t{requested}-{floor}")).manifest
            assert manifest["head_workers"] == want and "head_threads" not in manifest
            assert (pids == os.getpid()).all() if want == 1 else len(set(pids.tolist()) - {0, os.getpid()}) == 3
            digests.append(manifest["outputs"]["grid_digest"])
        assert len(set(digests)) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_manifest_reports_front_end_workers(self, tmp_path, monkeypatch):
        # small's 1,024 anchors x 32 stay under the head's plane floor: one in-process range.  2,048 anchors
        # x 128 reach it: two forked ranges, and each front-end stage reports the slower range's time
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        monkeypatch.setenv("GOC_THREADS", "2")
        small = run_pipeline(resolve_config({"preset": "synthetic", "out": str(tmp_path / "small")})).manifest
        assert small["front_end_workers"] == 1
        ranges = []
        real = workers.run

        def recorded(bounds, fill, *args):
            values = real(bounds, fill, *args)
            if args[:1] == ("front-end",):
                ranges.append((list(bounds), values))
            return values

        monkeypatch.setattr(workers, "run", recorded)
        result = run_pipeline(small_config(tmp_path, subdir="wide", gaussian_count=2048, feature_width=128))
        manifest = result.manifest
        assert json.loads(result.manifest_path.read_text())["front_end_workers"] == 2
        assert manifest["front_end_workers"] == 2 and manifest["head_workers"] == 3
        (bounds, values), = ranges
        assert bounds == [0, 1024, 2048] and len(values) == 2
        timings = manifest["stage_timings_s"]
        assert list(timings) == ["scene", "weights", "anchors", "lifting", "smoothing", "fusion", "head", "splat",
                                 "eval", "emit"]
        for stage in ("lifting", "smoothing", "fusion"):
            assert timings[stage] == round(max(value[stage] for value in values), 6)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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


def assert_streamed_equals_whole(grid, labels, monkeypatch, leaves=(16, 32, 2**40)):
    """For slabs of CE tree leaves of each size in ``leaves`` (at 16 and 32,
    uneven on the 42-voxel grids; the last is the whole volume): CE and every
    Lovász loss bitwise equal to the whole-array functions, and Lovász within
    1e-12 of the full-sort oracle."""
    probs = metrics.probability_rows(grid.scores)
    lovasz = lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
    oracle = oracle_lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
    starts = []
    add = metrics.LovaszCandidates.add

    def recording_add(self, start, rows):
        starts.append(start)
        return add(self, start, rows)

    monkeypatch.setattr(metrics.LovaszCandidates, "add", recording_add)
    for leaf in leaves:
        monkeypatch.setattr(metrics, "_CE_LEAF", leaf)
        starts.clear()
        got_ce, got_lovasz = score_grid(grid, labels, SCORE_TAXONOMY)
        assert starts == metrics.leaf_cuts(grid.labels.size)[:-1]
        assert got_ce == weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights)  # the same tree's
        assert got_lovasz == lovasz
        assert got_lovasz.keys() == oracle.keys()
        for c, loss in oracle.items():
            assert abs(got_lovasz[c] - loss) <= 1e-12, (c, got_lovasz[c], loss)
    return lovasz


class TestScoreGrid:
    """The leaf-by-leaf eval against the whole-volume losses and the full-sort oracle."""

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
        # eight voxels per x-plane, one leaf of 8 each; class 0 has foreground at
        # voxels 7 and 23 with p_0 = 0.5, so t_0 = 0.5, and background ties
        # p_0 = 0.5 at voxels 8 and 24, each in the slab after a foreground voxel's
        scores = np.zeros((4, 8, 1, 4))
        scores[..., 1] = 0.75
        flat = scores.reshape(32, 4)
        flat[[7, 8, 23, 24]] = [0.5, 0.25, 0.0, 0.0]
        flat[9] = [0.375, 0.5, 0.0, 0.0]  # below the threshold: not a candidate
        labels = np.full((4, 8, 1), 1)
        labels.reshape(-1)[[7, 23]] = 0
        sorted_lengths = []
        gradient = metrics._lovasz_gradient

        def recording_gradient(fg_sorted):
            sorted_lengths.append(len(fg_sorted))
            return gradient(fg_sorted)

        grid = grid_of_scores(scores)
        lovasz = assert_streamed_equals_whole(grid, labels, monkeypatch, leaves=(8, 16, 2**40))
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        monkeypatch.setattr(metrics, "_lovasz_gradient", recording_gradient)
        assert score_grid(grid, labels, SCORE_TAXONOMY)[1] == lovasz
        assert sorted_lengths[0] == 4  # voxels 7, 8, 23 and 24

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


    def test_no_voxel_length_vector(self, taxonomy, monkeypatch):
        # CE terms are summed leaf by leaf: no (voxels,) shared mapping, forked or not, and
        # in-process, with leaves of one x-plane, a peak allocation of less than 8 B per
        # voxel (about 5: the foreground index, the Lovász candidates and parts)
        rng = np.random.default_rng(27)
        dims = (256, 32, 32)  # 2^18 voxels
        grid = grid_of_scores(rng.uniform(0.0, 0.1, size=dims + (taxonomy.c_sem,)))
        labels = np.where(rng.uniform(size=dims) < 0.9, taxonomy.empty_id, rng.integers(0, 17, size=dims))
        labels = labels.astype(np.uint8)
        shapes = []
        shared = workers.shared

        def recording_shared(shape, *args):
            shapes.append(tuple(shape))
            return shared(shape, *args)

        monkeypatch.setattr(workers, "shared", recording_shared)
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        forks = record_forks(monkeypatch)
        forked = score_grid(grid, labels, taxonomy, threads=2)
        assert len(forks) == (1 if hasattr(os, "fork") else 0)
        monkeypatch.setattr(metrics, "_CE_LEAF", 2**10)  # leaves of one x-plane of 1,024 rows
        tracemalloc.start()
        try:
            in_process = score_grid(grid, labels, taxonomy, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (labels.size,) not in shapes, shapes
        assert peak < 8 * labels.size, (peak, 8 * labels.size)
        assert in_process == forked


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestScoreGridWorkers:
    """The all-voxel pass in forked workers, one per run of CE leaves."""

    # 24 x-planes of 8 voxels: with leaves of 8, one leaf per x-plane, up to three workers of 8 leaves each
    DIMS = (24, 4, 2)

    @pytest.mark.parametrize("count, bounds", [
        (1, None), (2, None), (3, None), (2, [0, 5, 24]), (3, [0, 1, 20, 24]),
    ])
    def test_bitwise_equal_for_any_workers_and_ranges(self, monkeypatch, count, bounds):
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)  # weighted_ce sums the eval's tree
        rng = np.random.default_rng(40 + count)
        grid = grid_of_scores(tied_scores(rng, self.DIMS))
        labels = rng.choice([0, 1, 2, SCORE_TAXONOMY.empty_id], size=self.DIMS)
        probs = metrics.probability_rows(grid.scores)
        ce = weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights)
        lovasz = lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id)
        assert 3 in lovasz  # predicted, never true: its loss is the folded max p_3
        monkeypatch.setattr(workers, "usable_cores", lambda: count)
        if bounds is not None:
            monkeypatch.setattr(workers, "slab_bounds", lambda total, pieces, width: bounds)
        forks = record_forks(monkeypatch)
        assert score_grid(grid, labels, SCORE_TAXONOMY, threads=8) == (ce, lovasz)
        assert forks == ([] if count == 1 else [bounds or workers.slab_bounds(24, count, 1)])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("count, bounds", [
        (1, None), (2, None), (3, None), (2, [0, 5, 24]), (3, [0, 1, 20, 24]),
    ])
    def test_ranges_that_cut_ce_leaves(self, monkeypatch, count, bounds):
        # CE leaves of 8 terms against x-planes of 6 voxels: ranges of x-planes would cut
        # leaves, so the eval's ranges are runs of whole leaves, which cut x-planes instead
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        dims = (32, 3, 2)  # 24 leaves
        rng = np.random.default_rng(50 + count)
        grid = grid_of_scores(rng.uniform(0.0, 0.4, size=dims + (SCORE_TAXONOMY.c_sem,)))
        labels = rng.choice([0, 1, 2, SCORE_TAXONOMY.empty_id], size=dims)
        ce = weighted_ce(metrics.probability_rows(grid.scores), labels, SCORE_TAXONOMY.class_weights)
        one_range = score_grid(grid, labels, SCORE_TAXONOMY, threads=1)[0]
        monkeypatch.setattr(workers, "usable_cores", lambda: count)
        if bounds is not None:
            monkeypatch.setattr(workers, "slab_bounds", lambda total, pieces, width: bounds)
        forks = record_forks(monkeypatch)
        forked = score_grid(grid, labels, SCORE_TAXONOMY, threads=8)[0]
        assert forks == ([] if count == 1 else [bounds or workers.slab_bounds(24, count, 1)])
        monkeypatch.delattr(os, "fork")  # the same ranges, each run in-process in turn
        in_process = score_grid(grid, labels, SCORE_TAXONOMY, threads=8)[0]
        assert one_range == forked == in_process == ce
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_threshold_set_in_another_workers_range(self, monkeypatch):
        # class 0's smallest foreground error (voxel 22, p_0 = 0.9) lies in
        # the last of three ranges; every background voxel has p_0 = 0.3, so
        # with the global t_0 = 0.1 each is a candidate, while the first
        # range's own foreground (voxel 1, p_0 = 0.5) would have kept out
        # those of its range
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        scores = np.zeros(self.DIMS + (SCORE_TAXONOMY.c_sem,))
        flat = scores.reshape(-1, SCORE_TAXONOMY.c_sem)
        flat[:] = [0.3, 0.6, 0.0, 0.0]
        labels = np.ones(self.DIMS, dtype=np.int64)
        for voxel, p0 in ((1, 0.5), (22 * 8, 0.9)):
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

        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
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
            return add(self, start, probs)

        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        monkeypatch.setattr(workers, "slab_bounds", lambda total, pieces, width: [0, 8, 24])
        monkeypatch.setattr(metrics.CrossEntropyTerms, "add", failing)
        with pytest.raises(WorkerError, match=r"eval worker of CE leaves \[8, 24\) failed: RuntimeError: boom") as info:
            score_grid(grid, labels, SCORE_TAXONOMY, threads=2)
        assert info.value.bounds == (8, 24)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_count_needs_eight_slabs_each(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 4)
        def eval_count(threads, dims):
            return workers.count(threads, pipeline._eval_pieces(int(np.prod(dims))))

        # small: 32x32x16 is 2 leaves of 8,192
        assert eval_count(2, (32, 32, 16)) == 1
        # dense-grid: 256 leaves, one x-plane each; the threads and cores decide
        assert eval_count(2, (256, 256, 32)) == 2
        assert eval_count(8, (256, 256, 32)) == 4
        assert eval_count(1, (256, 256, 32)) == 1
        # 15 x-planes are 16 leaves of 7,680: two workers; 8 x-planes are 8 leaves: one
        assert eval_count(8, (15, 256, 32)) == 2
        assert eval_count(8, (8, 256, 32)) == 1
        # 24 one-plane leaves of 8: three workers, not the four the cores allow
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        assert eval_count(8, (24, 4, 2)) == 3

    def test_forked_run_leaves_no_child_and_same_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        monkeypatch.setattr(metrics, "_CE_LEAF", 128)  # one-plane leaves: the eval forks on 16 planes
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
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
        monkeypatch.setattr(metrics, "_CE_LEAF", 128)  # one-plane leaves: the eval forks on 16 planes
        monkeypatch.setenv("GOC_THREADS", "2")
        forked = run_pipeline(small_config(tmp_path, subdir="forked"))
        assert (forked.manifest["threads"], forked.manifest["eval_workers"]) == (2, 2)
        monkeypatch.delattr(os, "fork")  # every slab runs in-process, and the manifest says so
        alone = run_pipeline(small_config(tmp_path, subdir="alone"))
        assert (alone.manifest["threads"], alone.manifest["eval_workers"]) == (1, 1)
        assert alone.manifest["outputs"]["grid_digest"] == forked.manifest["outputs"]["grid_digest"]
        assert alone.metrics_path.read_bytes() == forked.metrics_path.read_bytes()

    def test_ranges_without_fork_equal_forked(self, monkeypatch):
        # with os.fork gone workers.count is 1, so the eval runs as one
        # in-process range, each slab gathered once and folded once
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        rng = np.random.default_rng(45)
        grid = grid_of_scores(tied_scores(rng, self.DIMS))
        labels = rng.choice([0, 1, 2, SCORE_TAXONOMY.empty_id], size=self.DIMS)
        starts = []
        add = metrics.LovaszCandidates.add

        def recording_add(self, start, rows):
            starts.append(start)  # seen by the parent only for a range it ran itself
            return add(self, start, rows)

        monkeypatch.setattr(metrics.LovaszCandidates, "add", recording_add)
        monkeypatch.setattr(workers, "usable_cores", lambda: 3)
        forks = record_forks(monkeypatch)
        forked = score_grid(grid, labels, SCORE_TAXONOMY, threads=3)
        assert forks == [[0, 8, 16, 24]] and starts == []
        monkeypatch.delattr(os, "fork")
        in_process = score_grid(grid, labels, SCORE_TAXONOMY, threads=3)
        assert forks == [[0, 8, 16, 24]]  # the forked run's ranges only
        assert starts == list(range(0, 24 * 8, 8))
        assert in_process == forked
        probs = metrics.probability_rows(grid.scores)
        assert forked == (weighted_ce(probs, labels, SCORE_TAXONOMY.class_weights),
                          lovasz_per_class(probs, labels, SCORE_TAXONOMY.empty_id))

    def test_small_preset_scores_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 2)
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


# occ3d's widths (F = 128, D = 8, so 1,024-anchor blocks) on a small grid with small planes
FRONT_END_RUN = {
    "preset": "synthetic",
    "feature_width": 128,
    "grid_dims": (16, 16, 8),
    "plane_shape": (8, 12),
    "camera_shape": (16, 24),
    "seed": 7,
}


@pytest.fixture(scope="module")
def front_end_inputs():
    config = resolve_config(FRONT_END_RUN)
    scene = generate_scene(config.scene_config, derive_seed(config.seed, "scene"))
    bundle = build_parameter_bundle(config.model, derive_seed(config.seed, "weights"))
    return config, scene, bundle


def front_end_anchors(config, n):
    """``n`` anchors of the config's grid, with random features so that every anchor lifts its own keypoints."""
    arrays = init_anchors(n, config.grid, seed=n, model=config.model)
    arrays["feature"] = np.random.default_rng(n).normal(size=arrays["feature"].shape)
    return arrays


def front_end_reference(config, scene, bundle, arrays):
    """The four front-end stages over every anchor at once; the LDFA chain composed from its steps, unblocked."""
    f_cam = lifting.aggregate_camera(arrays["centroid"], scene.views, lifting.CameraLiftParams.from_bundle(bundle))
    keypoints = lifting.generate_keypoints(
        arrays["feature"], np.exp(arrays["log_scale"]), lifting.KeypointParams.from_bundle(bundle)
    )
    f_depth = lifting.ldfa_depth_sample(arrays["centroid"], keypoints, scene.stack)
    ldfa = lifting.LdfaParams.from_bundle(bundle)
    modulated = lifting.cross_depth_modulate(lifting.chunk_means(f_depth, config.model.depth_chunks), ldfa)
    f_lidar = lifting.gated_global_fusion(modulated, f_depth, ldfa)
    if config.smoothing:
        f_cam, f_lidar = smoothing.smooth_features(f_cam, f_lidar, float(bundle.get("smoothing.eps")))
    return fusion.fuse(f_lidar, f_cam, fusion.FusionParams.from_bundle(bundle), config.fusion_mode)


class TestFrontEnd:
    # 16-anchor blocks: under one block, one block plus a one-anchor tail, two blocks plus one and plus five
    BLOCK = 16
    BOUNDS = {  # (anchors, workers) -> anchor ranges: whole multiples of 8, a one-anchor tail joined
        (4, 1): [0, 4], (4, 2): [0, 4], (4, 3): [0, 4],
        (9, 1): [0, 9], (9, 2): [0, 9], (9, 3): [0, 9],
        (17, 1): [0, 17], (17, 2): [0, 17], (17, 3): [0, 8, 17],
        (33, 1): [0, 33], (33, 2): [0, 24, 33], (33, 3): [0, 16, 33],
        (37, 1): [0, 37], (37, 2): [0, 24, 37], (37, 3): [0, 16, 32, 37],
    }
    BLOCKS = {4: [4], 9: [9], 17: [17], 33: [16, 17], 37: [16, 16, 5]}  # block sizes of one range over every anchor

    @staticmethod
    def threads(monkeypatch, cores):
        """Patch ``cores`` usable cores and a fork floor of one value; return the threads requested, 3."""
        monkeypatch.setattr(workers, "usable_cores", lambda: cores)
        monkeypatch.setattr(head, "_PLANE_WORKER_VALUES", 1)
        return 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("n", [4, 9, 17, 33, 37])
    def test_bitwise_equal_to_stages_over_every_anchor(self, front_end_inputs, monkeypatch, n, cores):
        config, scene, bundle = front_end_inputs
        arrays = front_end_anchors(config, n)
        d, _, _, f = scene.stack.planes.shape
        threads = self.threads(monkeypatch, cores)  # the front end clamps the request to the cores
        monkeypatch.setattr(pipeline, "_LIFT_BLOCK_BYTES", self.BLOCK * 8 * d * f)
        blocks, reads = [], []
        lift, reduce_taps = lifting.lift_lidar, lifting._reduce_taps
        monkeypatch.setattr(lifting, "lift_lidar", lambda rows, *a: blocks.append(len(rows)) or lift(rows, *a))

        def reduce_recorded(rows, *args):  # a depth sample's rows are (H*W, D*F), a camera plane's (H*W, F)
            if rows.shape[1] == d * f:
                reads.append(np.shares_memory(rows, scene.stack.planes))
            return reduce_taps(rows, *args)

        monkeypatch.setattr(lifting, "_reduce_taps", reduce_recorded)
        forks = record_forks(monkeypatch)
        bounds = self.BOUNDS[n, cores]
        for smooth in (False, True):
            for mode in ("addition", "concatenation", "adaptive"):
                run = resolve_config({**FRONT_END_RUN, "smoothing": smooth, "fusion_mode": mode})
                want = front_end_reference(run, scene, bundle, arrays)
                got, timings, ranges = pipeline._front_end(run, scene, bundle, arrays, threads)
                np.testing.assert_array_equal(got, want)
                assert ranges == len(bounds) - 1 and list(timings) == ["lifting", "smoothing", "fusion"]
        # one range walks its blocks in-process; forked ranges walk theirs in the children
        assert forks == ([bounds] * 6 if len(bounds) > 2 else [])
        assert blocks == (self.BLOCKS[n] * 6 if len(bounds) == 2 else [])
        # every depth sample, the reference's and each in-process block's, reads the stack's own rows: no copy
        assert reads == [True] * (6 + len(blocks))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_real_blocks_forked_bitwise_equal(self, front_end_inputs, monkeypatch):
        # two blocks plus five anchors, occ3d's stages (smoothing on, adaptive fusion), two workers
        config, scene, bundle = front_end_inputs
        run = resolve_config({**FRONT_END_RUN, "smoothing": True})
        n = 2 * 1024 + 5
        arrays = front_end_anchors(config, n)
        forks = record_forks(monkeypatch)
        got, _, ranges = pipeline._front_end(run, scene, bundle, arrays, self.threads(monkeypatch, 2))
        assert forks == [[0, 1032, 2053]] and ranges == 2
        np.testing.assert_array_equal(got, front_end_reference(run, scene, bundle, arrays))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_failed_worker_names_anchor_range_and_leaves_no_child(self, front_end_inputs, monkeypatch):
        config, scene, bundle = front_end_inputs
        d, _, _, f = scene.stack.planes.shape
        monkeypatch.setattr(pipeline, "_LIFT_BLOCK_BYTES", self.BLOCK * 8 * d * f)
        real = fusion.fuse

        def failing(f_l, *args):
            if len(f_l) == 5:  # the last range's one block
                raise RuntimeError("boom")
            return real(f_l, *args)

        monkeypatch.setattr(fusion, "fuse", failing)
        arrays = front_end_anchors(config, 37)
        with pytest.raises(WorkerError, match=r"front-end worker of anchor range \[32, 37\) failed: "
                                                   r"RuntimeError: boom") as info:
            pipeline._front_end(config, scene, bundle, arrays, self.threads(monkeypatch, 3))
        assert info.value.bounds == (32, 37)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_products_at_or_below_blas_cutoff(self, front_end_inputs, monkeypatch):
        # every product a front-end worker makes stays on its own thread, so no worker starts BLAS threads
        config, scene, bundle = front_end_inputs
        arrays = front_end_anchors(config, 2 * 1024 + 5)
        products, real = [], np.matmul

        def record(a, b, *args, **kwargs):
            products.append((a.shape[-2], a.shape[-1], b.shape[-1] if b.ndim > 1 else None))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", record)
        for mode in ("addition", "concatenation", "adaptive"):
            run = resolve_config({**FRONT_END_RUN, "smoothing": True, "fusion_mode": mode})
            pipeline._front_end(run, scene, bundle, arrays, 1)
        monkeypatch.undo()
        assert {n for _, _, n in products} >= {None, 128, 3 * config.model.lidar_keypoints}
        assert max(m for m, _, _ in products) == 1024  # the largest products are whole blocks
        for m, k, n in products:
            assert (m * k < head.BLAS_GEMV_THREAD_MK if n is None else m * k * n <= head.BLAS_THREAD_MNK), (m, k, n)

    def test_stages_have_no_matmul_operator(self):
        # `@` does not reach the recorder above, so the front end uses np.matmul (through _product) only
        for module in (lifting, smoothing, fusion):
            tree = ast.parse(inspect.getsource(module))
            assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), module.__name__

    def test_in_process_peak_below_one_block_plus_output(self, front_end_inputs):
        # occ3d's anchors and stages in-process: the traced peak stays below one block's depth samples plus
        # the (N, F) features, while the four stages over every anchor at once exceed it
        config, scene, bundle = front_end_inputs
        run = resolve_config({**FRONT_END_RUN, "smoothing": True})
        n = 12800
        arrays = front_end_anchors(config, n)
        budget = pipeline._LIFT_BLOCK_BYTES + 8 * n * config.model.feature_width

        def stages():
            f_cam = lifting.aggregate_camera(arrays["centroid"], scene.views,
                                             lifting.CameraLiftParams.from_bundle(bundle))
            f_lidar = lifting.lift_lidar(
                arrays["centroid"], arrays["feature"], np.exp(arrays["log_scale"]), scene.stack,
                lifting.KeypointParams.from_bundle(bundle), lifting.LdfaParams.from_bundle(bundle),
                config.model.depth_chunks,
            )
            f_cam, f_lidar = smoothing.smooth_features(f_cam, f_lidar, float(bundle.get("smoothing.eps")))
            return fusion.fuse(f_lidar, f_cam, fusion.FusionParams.from_bundle(bundle), run.fusion_mode)

        peaks = []
        for fn in (lambda: pipeline._front_end(run, scene, bundle, arrays, 1), stages):
            tracemalloc.start()
            try:
                fn()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        blocked, whole = peaks
        assert blocked < budget < whole, (blocked, budget, whole)


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

    def test_synth_encodes_scene_once_and_prints_file_hash(self, tmp_path, capsys, monkeypatch):
        """synth writes the scene's sections once and builds no whole-file bytes (no ``dump_scene``)."""
        calls, dumps = [], []
        sections = harness._scene_sections

        def counting_sections(scene):
            calls.append(scene)
            return sections(scene)

        monkeypatch.setattr(harness, "_scene_sections", counting_sections)
        monkeypatch.setattr(harness, "dump_scene", dumps.append)
        scene_path = tmp_path / "scene.gscn"
        assert main(["synth", "--preset", "synthetic", "--seed", "8", "--scene-out", str(scene_path)]) == 0
        assert len(calls) == 1 and dumps == []
        digest = hashlib.sha256(scene_path.read_bytes()).hexdigest()
        assert capsys.readouterr().out == f"wrote {scene_path} hash {digest}\n"

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

    def test_sweep_refuses_count_below_refiner_minimum_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--preset", "synthetic", "--sweep-gaussians", "64,2", "--sweep-fusion", "adaptive",
                     "--seed", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ") and "gaussian_count" in captured.err
        assert captured.out == "" and not (out / "g64_adaptive").exists() and not out.exists()

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
