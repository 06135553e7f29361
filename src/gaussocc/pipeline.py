"""End-to-end pipeline runner: lifting, smoothing, fusion, refinement, splat, metrics.

The pipeline runs forward only.  Its random draws (scene, weights, anchors)
derive from the master seed and a stage label, so a run is a deterministic
function of (config, seeds, weight bundle); smoothing runs only when the
config turns it on.  GOC_THREADS (default 8) is the splat's ``threads``
request; ``head.splat_arrays`` alone clamps it to its worker count, which
the manifest reports.  Sharding never changes per-voxel accumulation order,
so the emitted grid digest is identical for any worker count.  Inputs a
later stage never reads (the scene's views and depth planes, the
per-modality features) are dropped as soon as they are consumed, so they
are not resident during the splat.

The grid is scored in x-slabs (``score_grid``): no probability volume is
held, only one slab of probability rows at a time plus a few per-voxel
vectors, and CE and Lovász equal their whole-volume values bit for bit.
``score_grid`` only orchestrates: ``metrics`` owns the probability rule and
the losses, and ``head._fork_slabs`` runs the all-voxel pass over
``eval_workers`` (manifest) ranges of x-planes, forked when the grid has
enough slabs to pay for the forks, and returns each range's Lovász parts.

The emit stage creates ``out_dir`` (so a run refused at load leaves none
behind) and writes ``pred_grid.goc1``, ``metrics.txt`` and ``bev.ppm``,
and ``manifest.json`` follows it, each through ``formats.write_file``: a
re-run into the same ``out_dir`` replaces each file as a new one instead of
truncating it, so a re-run within seconds of the last costs no forced
writeback; a run into a new ``out_dir`` writes over nothing and gains
nothing.  The manifest's grid digest is the sha256 of the bytes
``emit_grid`` wrote; the file is not read back.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import resource
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

# probability rows built at a time when the grid is scored: about 1 MB
_SLAB_BYTES = 2**20
# slabs an eval worker must get before the eval forks.  On the small
# workload's 32x32x16 grid (3 slabs) two workers took score_grid from 2.6-3.5
# ms to 8.7 ms (median of 40 calls), so it stays in-process; on dense-grid
# (256 one-plane slabs) two took it from 0.20 to 0.13 s (best of 5; 2-vCPU VM)
_MIN_WORKER_SLABS = 8


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


def _requested_threads() -> int:
    """Splat worker processes asked for: GOC_THREADS, or 8 when it is unset or blank."""
    raw = os.environ.get("GOC_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigurationError(f"GOC_THREADS must be an integer, got {raw!r}") from None
    return 8


def _planes_per_slab(dims: tuple, c_total: int) -> int:
    """Whole x-planes of probability rows in one slab of about _SLAB_BYTES."""
    return max(1, _SLAB_BYTES // (8 * c_total * dims[1] * dims[2]))


def _eval_workers(threads: int, dims: tuple, c_total: int) -> int:
    """Eval workers: the splat's clamp (``head._worker_count``), each with at least _MIN_WORKER_SLABS slabs."""
    slabs = -(-dims[0] // _planes_per_slab(dims, c_total))
    return max(1, min(head._worker_count(threads, dims[0]), slabs // _MIN_WORKER_SLABS))


def score_grid(pred, truth_labels: np.ndarray, taxonomy, *, threads: int = 1) -> tuple[float, dict[int, float]]:
    """Weighted CE and per-class Lovász of a predicted grid against truth labels.

    ``metrics.probability_rows`` builds the rows in x-slabs of about
    _SLAB_BYTES: first for the foreground voxels only (the Lovász
    thresholds), then for every voxel in ascending order, each slab feeding
    ``metrics.CrossEntropyTerms`` and ``metrics.LovaszCandidates``.
    ``head._fork_slabs`` runs the second pass, ``gather``, over
    ``_eval_workers`` ascending ranges of x-planes (``threads`` is the
    request): each range fills its CE terms into one anonymous mapping and
    returns its list of Lovász parts, which the parent folds in range order.
    The thresholds are fixed before any range is gathered, so the candidates
    are the sequential ones, and both results equal the whole-volume
    ``weighted_ce`` and ``lovasz_per_class`` bit for bit, for any worker
    count.  A failed worker raises ``SplatWorkerError`` naming the eval
    stage and its range.  The class count is the score channels plus empty;
    a taxonomy of another size is a ``LabelError``.
    """
    scores = pred.scores.reshape(-1, pred.scores.shape[-1])
    c_total = scores.shape[-1] + 1
    dims = pred.spec.dims
    terms = np.frombuffer(mmap.mmap(-1, 8 * len(scores)), dtype=np.float64)
    ce = metrics.CrossEntropyTerms(truth_labels, taxonomy.class_weights, c_total, terms)
    labels = ce.labels  # flat int64, shared rather than converted twice
    lovasz = metrics.LovaszCandidates(labels, c_total, taxonomy.empty_id)
    plane = dims[1] * dims[2]
    step = plane * _planes_per_slab(dims, c_total)
    foreground = lovasz.foreground
    for i in range(0, len(foreground), step):
        index = foreground[i : i + step]
        lovasz.add_foreground(index, metrics.probability_rows(scores[index]))

    def gather(x_lo: int, x_hi: int) -> list:  # a worker's CE terms, and its range's Lovász parts
        parts = []
        for start in range(x_lo * plane, x_hi * plane, step):
            probs = metrics.probability_rows(scores[start : min(start + step, x_hi * plane)])
            ce.add(start, probs)
            parts.append(lovasz.add(start, probs))
        return parts

    bounds = head._slab_bounds(dims[0], _eval_workers(threads, dims, c_total))
    for parts in head._fork_slabs(bounds, gather, "eval"):
        lovasz.fold(parts)
    return ce.value(), lovasz.losses()


def _load_or_generate_scene(config: RunConfig) -> SyntheticScene:
    """The scene file, refused unless it was made for this grid, class list and model; else a new scene."""
    if not config.scene_path:
        return generate_scene(config.scene_config, derive_seed(config.seed, "scene"))
    scene = load_scene(config.scene_path)
    for what, theirs, wanted in (
        ("grid", scene.config.grid, config.grid),
        ("classes", scene.config.taxonomy.names, config.taxonomy.names),
        ("feature width", scene.config.feature_width, config.model.feature_width),
        ("depth planes", scene.config.depth_planes, config.model.depth_planes),
    ):
        if theirs != wanted:
            raise ConfigurationError(f"scene {what} {theirs} does not match the configured {wanted}", field="scene")
    return scene


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


def _health(report: metrics.IoUReport) -> dict:
    """Predicted-class histogram and occupied fraction, from the confusion counts."""
    histogram = [entry.tp + entry.fp for entry in report.per_class]
    voxels = sum(histogram)
    return {
        "predicted_class_histogram": histogram,
        "occupied_fraction": (voxels - histogram[report.empty_id]) / voxels,
    }


def run_pipeline(config: RunConfig) -> RunResult:
    out_dir = Path(config.out_dir)
    threads_requested = _requested_threads()
    timings: dict[str, float] = {}
    seeds = {label: derive_seed(config.seed, label) for label in ("scene", "weights", "anchors")}
    model = config.model

    with _timed(timings, "scene"):
        scene = _load_or_generate_scene(config)

    with _timed(timings, "weights"):
        bundle = _load_or_build_bundle(config)
        validate_bundle(bundle, model)

    with _timed(timings, "anchors"):
        arrays = init_anchors(config.gaussian_count, config.grid, seeds["anchors"], model=model)

    with _timed(timings, "lifting"):
        cam_params = lifting.CameraLiftParams.from_bundle(bundle)
        f_cam = lifting.aggregate_camera(arrays["centroid"], scene.views, cam_params)
        kp_params = lifting.KeypointParams.from_bundle(bundle)
        ldfa_params = lifting.LdfaParams.from_bundle(bundle)
        f_lidar = lifting.lift_lidar(
            arrays["centroid"],
            arrays["feature"],
            np.exp(arrays["log_scale"]),
            scene.stack,
            kp_params,
            ldfa_params,
            model.depth_chunks,
        )
        truth = scene.truth
        del scene  # the views and depth planes are not read again

    with _timed(timings, "smoothing"):  # timed even when off, so every run reports each stage
        if config.smoothing:
            eps = float(bundle.get("smoothing.eps"))
            f_cam, f_lidar = smoothing.smooth_features(f_cam, f_lidar, eps)

    with _timed(timings, "fusion"):
        fusion_params = fusion.FusionParams.from_bundle(bundle)
        arrays["feature"] = fusion.fuse(f_lidar, f_cam, fusion_params, config.fusion_mode)
        del f_cam, f_lidar

    with _timed(timings, "head"):
        head_params = head.HeadParams.from_bundle(bundle, model, config.grid)
        arrays = head.run_head(arrays, head_params, model.semantic_classes, threads=threads_requested)

    with _timed(timings, "splat"):
        pred = head.splat_arrays(
            arrays,
            config.grid,
            config.truncation_sigmas,
            occupancy_threshold=config.occupancy_threshold,
            threads=threads_requested,
        )

    with _timed(timings, "eval"):
        report = metrics.class_iou(pred, truth, config.taxonomy.c_total)
        ce, lovasz_losses = score_grid(pred, truth.labels, config.taxonomy, threads=threads_requested)
        lovasz = metrics.lovasz_mean(lovasz_losses)
        losses = {"ce": ce, "lovasz": lovasz, "total": metrics.total_loss(ce, lovasz)}
        metrics_text = metrics.format_metrics(report, config.taxonomy, losses)

    with _timed(timings, "emit"):
        out_dir.mkdir(parents=True, exist_ok=True)
        grid_path = out_dir / "pred_grid.goc1"
        grid_bytes = formats.emit_grid(pred, grid_path, class_count=config.taxonomy.c_total)
        digest = hashlib.sha256(grid_bytes).hexdigest()
        metrics_path = out_dir / "metrics.txt"
        formats.write_file(metrics_path, metrics_text.encode("utf-8"))
        bev_path = out_dir / "bev.ppm"
        palette = formats.palette_for(config.taxonomy.c_total)
        formats.emit_bev_slice(pred, config.grid.dims[2] // 2, palette, bev_path)

    manifest = {
        "config": config.flat(),
        "config_hash": config.config_hash(),
        "seeds": seeds,
        "threads": head._worker_count(threads_requested, config.grid.dims[0]),  # the splat's worker count
        "eval_workers": _eval_workers(threads_requested, config.grid.dims, config.taxonomy.c_total),
        "head_threads": head._plane_workers(threads_requested, config.gaussian_count, model.feature_width),
        "threads_requested": threads_requested,
        "anchor_count": config.gaussian_count,
        "stage_timings_s": {k: round(v, 6) for k, v in timings.items()},
        # high-water RSS of this process so far, and of the largest child it
        # has waited for, i.e. a forked splat or eval worker (Linux reports KiB)
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "peak_rss_children_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, 1),
        "health": _health(report),
        "outputs": {
            "grid": grid_path.name,
            "metrics": metrics_path.name,
            "bev": bev_path.name,
            "grid_digest": digest,
        },
    }
    manifest_path = out_dir / "manifest.json"
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    formats.write_file(manifest_path, manifest_text.encode("utf-8"))
    return RunResult(
        out_dir=out_dir,
        manifest=manifest,
        grid_path=grid_path,
        metrics_path=metrics_path,
        bev_path=bev_path,
        manifest_path=manifest_path,
    )
