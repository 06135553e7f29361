"""End-to-end pipeline runner: lifting, smoothing, fusion, refinement, splat, metrics.

Every random draw derives from the master seed and a stage label, so a run
is a deterministic function of (config, seeds, weight bundle).  GOC_THREADS
caps the splat thread pool; sharding never changes per-voxel accumulation
order, so the emitted grid digest is identical for any thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats, fusion, head, lifting, metrics, smoothing
from .core import init_anchors
from .errors import ConfigurationError
from .harness import SyntheticScene, generate_scene, load_scene
from .params import ParameterBundle, build_parameter_bundle, validate_bundle
from .presets import RunConfig

STAGES = ("scene", "weights", "anchors", "lifting", "smoothing", "fusion", "head", "splat", "eval", "emit")


@dataclass(frozen=True)
class RunResult:
    out_dir: Path
    manifest: dict
    grid_path: Path
    metrics_path: Path
    bev_path: Path
    manifest_path: Path


def derive_seed(master: int, label: str) -> int:
    """Stable 63-bit child seed for a named stage."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def thread_cap() -> int:
    raw = os.environ.get("GOC_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigurationError(f"GOC_THREADS must be an integer, got {raw!r}") from None
    return min(8, os.cpu_count() or 1)


def grid_probabilities(grid, c_sem: int) -> np.ndarray:
    """Per-voxel class probabilities from splat scores.

    Semantic channels keep their accumulated mixture mass; the empty channel
    takes the left-over max(1 - density, 0); rows are renormalized.
    """
    sem = grid.scores[..., :c_sem]
    density = sem.sum(axis=-1)
    empty = np.maximum(1.0 - density, 0.0)
    probs = np.concatenate([sem, empty[..., None]], axis=-1)
    return probs / np.maximum(probs.sum(axis=-1, keepdims=True), 1e-12)


def _load_or_generate_scene(config: RunConfig) -> SyntheticScene:
    if config.scene_path:
        scene = load_scene(config.scene_path)
        if scene.config.grid.dims != config.grid.dims:
            raise ConfigurationError(
                f"scene grid {scene.config.grid.dims} does not match configured grid {config.grid.dims}",
                field="scene",
            )
        if scene.config.feature_width != config.model.feature_width:
            raise ConfigurationError(
                "scene feature width does not match the model feature width", field="scene"
            )
        return scene
    return generate_scene(config.scene_config, derive_seed(config.seed, "scene"))


def _load_or_build_bundle(config: RunConfig) -> ParameterBundle:
    if config.weights_path:
        return formats.load_bundle(config.weights_path)
    return build_parameter_bundle(config.model, derive_seed(config.seed, "weights"))


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Record the wall time of the enclosed block under ``timings[stage]``."""
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


def run_pipeline(config: RunConfig) -> RunResult:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = thread_cap()
    timings: dict[str, float] = {}
    seeds = {label: derive_seed(config.seed, label) for label in ("scene", "weights", "anchors", "chunking")}
    model = config.model

    with _timed(timings, "scene"):
        scene = _load_or_generate_scene(config)

    with _timed(timings, "weights"):
        bundle = _load_or_build_bundle(config)
        validate_bundle(bundle, model)

    with _timed(timings, "anchors"):
        arrays = init_anchors(config.gaussian_count, config.grid, seeds["anchors"], model=model)

    with _timed(timings, "lifting"):
        cam_params = lifting.CameraLiftParams.from_bundle(bundle, model.image_keypoints)
        f_cam = lifting.aggregate_camera(arrays["centroid"], scene.views, cam_params)
        kp_params = lifting.KeypointParams.from_bundle(bundle, model.feature_width, model.lidar_keypoints)
        ldfa_params = lifting.LdfaParams.from_bundle(bundle, model.feature_width, model.depth_chunks)
        chunking = lifting.partition_depths(
            model.depth_planes, model.depth_chunks, seeds["chunking"], training=False
        )
        f_lidar = lifting.lift_lidar(
            arrays["centroid"],
            arrays["feature"],
            np.exp(arrays["log_scale"]),
            scene.stack,
            kp_params,
            ldfa_params,
            chunking,
        )

    with _timed(timings, "smoothing"):
        smoothing_cfg = smoothing.SmoothingConfig(seed=derive_seed(config.seed, "smoothing"))
        eps = float(bundle.get("smoothing.eps", ()))
        f_cam, f_lidar, _ = smoothing.smooth_features(
            f_cam, f_lidar, smoothing_cfg, eps, training=False, force_on=config.smoothing
        )

    with _timed(timings, "fusion"):
        fusion_params = fusion.FusionParams.from_bundle(bundle, model.feature_width, model.consistency_width)
        arrays["feature"] = fusion.fuse(f_lidar, f_cam, fusion_params, config.fusion_mode)

    with _timed(timings, "head"):
        head_params = head.HeadParams.from_bundle(bundle, model, config.grid)
        arrays = head.run_head(arrays, head_params, model.semantic_classes)

    with _timed(timings, "splat"):
        pred = head.splat_arrays(
            arrays,
            config.grid,
            config.truncation_sigmas,
            occupancy_threshold=config.occupancy_threshold,
            threads=threads,
        )

    with _timed(timings, "eval"):
        report = metrics.class_iou(pred, scene.truth, config.taxonomy.c_total)
        probs = grid_probabilities(pred, model.semantic_classes)
        ce = metrics.weighted_ce(probs, scene.truth.labels, config.taxonomy.class_weights)
        lovasz = metrics.lovasz_softmax(probs, scene.truth.labels, config.taxonomy.empty_id)
        weights = metrics.LossWeights()
        losses = {"ce": ce, "lovasz": lovasz, "total": metrics.total_loss(ce, lovasz, weights)}
        metrics_text = metrics.format_metrics(report, config.taxonomy, losses)

    with _timed(timings, "emit"):
        grid_path = out_dir / "pred_grid.goc1"
        formats.emit_grid(pred, grid_path, class_count=config.taxonomy.c_total)
        digest = hashlib.sha256(grid_path.read_bytes()).hexdigest()
        metrics_path = out_dir / "metrics.txt"
        metrics_path.write_text(metrics_text)
        bev_path = out_dir / "bev.ppm"
        z_index = config.bev_z if config.bev_z is not None else config.grid.dims[2] // 2
        formats.emit_bev_slice(pred, z_index, formats.palette_for(config.taxonomy.c_total), bev_path)

    manifest = {
        "config": config.flat(),
        "config_hash": config.config_hash(),
        "seeds": seeds,
        "threads": threads,
        "anchor_count": config.gaussian_count,
        "stage_timings_s": {k: round(v, 6) for k, v in timings.items()},
        "outputs": {
            "grid": grid_path.name,
            "metrics": metrics_path.name,
            "bev": bev_path.name,
            "grid_digest": digest,
        },
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return RunResult(
        out_dir=out_dir,
        manifest=manifest,
        grid_path=grid_path,
        metrics_path=metrics_path,
        bev_path=bev_path,
        manifest_path=manifest_path,
    )
