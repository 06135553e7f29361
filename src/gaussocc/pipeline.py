"""End-to-end pipeline runner: lifting, smoothing, fusion, refinement, splat, metrics.

The pipeline runs forward only.  Its random draws (scene, weights, anchors)
derive from the master seed and a stage label, so a run is a deterministic
function of (config, seeds, weight bundle); smoothing runs only when the
config turns it on.  GOC_THREADS (default 8) is the ``threads`` request of
the front end, the head, the splat and the eval, which each hand ranges to
``workers.run``; the manifest reports the worker count each ran.  No worker
count changes an output bit.  Inputs a later stage never reads (the scene's
views and depth planes) are dropped as soon as they are consumed, so they
are not resident during the splat; the C heap's free pages go back to the
OS (``_malloc_trim``) before the scene is loaded and after it is dropped.

The front end (``_front_end``), the only place anchors are cut into blocks,
lifts, smooths and fuses them block by block over ``front_end_workers``
(manifest) anchor ranges, each writing its rows into one ``workers.shared``
(N, F) array that the head reads as the features.  The per-modality
features exist one block at a time, and the fused features are bitwise
those of the four stages over every anchor at once.

The grid is scored one leaf of the CE sum tree at a time (``score_grid``):
no probability volume and no per-voxel CE term vector is held, only one
leaf's probability rows at a time plus the truth's scored mask and
foreground index, and CE and Lovász equal their whole-volume values bit for
bit.  ``score_grid`` only orchestrates: ``metrics`` owns the probability
rule, the leaves and the losses, and ``workers.run`` runs the all-voxel pass
over ``eval_workers`` (manifest) runs of whole leaves, more than one only
when the grid has enough leaves to pay for the forks, and returns each
leaf's CE and Lovász parts.

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

import ctypes
import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np

from . import formats, fusion, head, lifting, metrics, smoothing, workers
from .core import _cuts, init_anchors
from .errors import ConfigurationError
from .harness import SyntheticScene, generate_scene, load_scene
from .params import ParameterBundle, build_parameter_bundle, validate_bundle
from .presets import RunConfig

# CE tree leaves an eval worker must get before the eval forks.  On the small
# workload's 32x32x16 grid (2 leaves) two workers took score_grid from 2.6-3.5
# ms to 8.7 ms (median of 40 calls), so it stays in-process; on dense-grid
# (256 leaves, one x-plane each) two took it from 0.20 to 0.13 s (best of 5;
# 2-vCPU VM)
_MIN_WORKER_SLABS = 8

# Byte budget of one front-end anchor block's (rows, D, F) depth samples:
# 1,024 anchors at D = 8, F = 128.  Holding every anchor's samples at once
# set the run's peak: occ3d's lifting took the process from 167 to 402 MB.
_LIFT_BLOCK_BYTES = 2**23

# glibc's malloc_trim(pad).  Once glibc raises its mmap threshold, multi-MB
# arrays come from the heap and stay resident when freed, under whatever peak
# comes next; run_pipeline hands those pages back to the OS.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # another C library
    _malloc_trim = None


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
    """Workers asked for: GOC_THREADS, or 8 when it is unset or blank."""
    raw = os.environ.get("GOC_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigurationError(f"GOC_THREADS must be an integer, got {raw!r}") from None
    return 8


def _eval_pieces(voxels: int) -> int:
    """Eval workers the grid pays for: one per _MIN_WORKER_SLABS leaves of the CE tree."""
    return (len(metrics.leaf_cuts(voxels)) - 1) // _MIN_WORKER_SLABS


def _front_end(config: RunConfig, scene: SyntheticScene, bundle: ParameterBundle, arrays: dict, threads: int):
    """Lifting, smoothing (when on) and fusion of every anchor; returns (fused (N, F) features, timings, ranges).

    This is the one anchor block loop.  The anchors are cut (``core._cuts``)
    into contiguous ranges of whole multiples of 8 rows, one per worker:
    ``threads`` is the request, which ``workers.count`` clamps to one worker
    per 8 anchors where the head forks its planes (``head._plane_workers``),
    else to one.  ``workers.run`` runs the ranges.  A range is cut the same
    way into blocks of about _LIFT_BLOCK_BYTES of (rows, D, F) depth
    samples; per block it runs ``aggregate_camera``, ``lift_lidar``,
    ``smooth_features`` and ``fuse`` and writes the block's rows into one
    ``workers.shared`` (N, F) array, so no process holds a full-width
    intermediate.  Every product is a ``_product`` and every other operation
    is per anchor, so the features are bitwise those of the four stages over
    every anchor at once, for any worker count.  Each range times its own
    lifting, smoothing and fusion (summed over its blocks; smoothing is
    timed even when off); each returned timing is the slowest range's.  A
    failed worker raises ``WorkerError`` naming the front-end stage and its
    anchor range.
    """
    model = config.model
    cam_params = lifting.CameraLiftParams.from_bundle(bundle)
    kp_params = lifting.KeypointParams.from_bundle(bundle)
    ldfa_params = lifting.LdfaParams.from_bundle(bundle)
    fusion_params = fusion.FusionParams.from_bundle(bundle)
    eps = float(bundle.get("smoothing.eps"))
    centroids, features, log_scales = arrays["centroid"], arrays["feature"], arrays["log_scale"]
    n, f = features.shape
    fused = workers.shared((n, f))
    block = max(8, _LIFT_BLOCK_BYTES // (8 * scene.stack.depth_levels * f) // 8 * 8)

    def chain(lo: int, hi: int) -> dict[str, float]:
        spent: dict[str, float] = {}
        for b_lo, b_hi in pairwise(_cuts(lo, hi, block)):
            rows = slice(b_lo, b_hi)
            with _timed(spent, "lifting"):
                f_cam = lifting.aggregate_camera(centroids[rows], scene.views, cam_params)
                f_lidar = lifting.lift_lidar(
                    centroids[rows],
                    features[rows],
                    np.exp(log_scales[rows]),
                    scene.stack,
                    kp_params,
                    ldfa_params,
                    model.depth_chunks,
                )
            with _timed(spent, "smoothing"):
                if config.smoothing:
                    f_cam, f_lidar = smoothing.smooth_features(f_cam, f_lidar, eps)
            with _timed(spent, "fusion"):
                fused[rows] = fusion.fuse(f_lidar, f_cam, fusion_params, config.fusion_mode)
        return spent

    count = workers.count(threads, -(-n // 8) if head._plane_workers(threads, n, f) > 1 else 1)
    bounds = _cuts(0, n, -(-n // (8 * count)) * 8)
    spent = workers.run(bounds, chain, "front-end", "anchor range")
    return fused, {stage: max(s[stage] for s in spent) for stage in spent[0]}, len(bounds) - 1


def score_grid(pred, truth_labels: np.ndarray, taxonomy, *, threads: int = 1) -> tuple[float, dict[int, float]]:
    """Weighted CE and per-class Lovász of a predicted grid against truth labels.

    ``metrics.probability_rows`` builds the rows in slabs: first for the
    foreground voxels only, in chunks of ``metrics._CE_LEAF`` (the Lovász
    thresholds, which are minima, so any chunks give the same), then for
    every voxel in ascending order, one leaf of the CE sum tree
    (``CrossEntropyTerms.cuts``) per slab, each feeding
    ``metrics.CrossEntropyTerms`` and ``metrics.LovaszCandidates``, which
    read the rows as given: each row is normalized once, where it is built.
    Both take ``truth_labels`` as they are (a uint8 grid is flattened to a
    view, never widened to an integer copy).
    ``workers.run`` runs the second pass, ``gather``, over ascending runs of
    whole leaves, one per worker: ``threads`` is the request, which
    ``workers.count`` clamps to ``_eval_pieces``.  Each range returns the
    CE part (its leaf sums) and the Lovász parts of its leaves, which the
    parent folds in range order, so no leaf is ever cut.
    The thresholds are fixed before any range is gathered, so the candidates
    are the sequential ones, and both results equal the whole-volume
    ``weighted_ce`` and ``lovasz_per_class`` bit for bit, for any worker
    count.  A failed worker raises ``WorkerError`` naming the eval
    stage and its range of leaves.  The class count is the score channels plus empty;
    a taxonomy of another size is a ``LabelError``.
    """
    scores = pred.scores.reshape(-1, pred.scores.shape[-1])
    c_total = scores.shape[-1] + 1
    ce = metrics.CrossEntropyTerms(truth_labels, taxonomy.class_weights, c_total)
    lovasz = metrics.LovaszCandidates(truth_labels, c_total, taxonomy.empty_id)
    foreground = lovasz.foreground
    for i in range(0, len(foreground), metrics._CE_LEAF):
        index = foreground[i : i + metrics._CE_LEAF]
        lovasz.add_foreground(index, metrics.probability_rows(scores[index]))

    def gather(lo: int, hi: int) -> list:  # the CE and Lovász parts of leaves [lo, hi)
        parts = []
        for start, end in pairwise(ce.cuts[lo : hi + 1]):
            probs = metrics.probability_rows(scores[start:end])
            parts.append((ce.add(start, probs), lovasz.add(start, probs)))
        return parts

    bounds = workers.slab_bounds(len(ce.cuts) - 1, workers.count(threads, _eval_pieces(len(scores))), 1)
    for parts in workers.run(bounds, gather, "eval", "CE leaves"):
        ce.fold(ce_part for ce_part, _ in parts)
        lovasz.fold(lovasz_part for _, lovasz_part in parts)
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
    """Add the wall time of the enclosed block to ``timings[stage]``."""
    start = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start


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
    if _malloc_trim is not None:  # what earlier calls freed would sit under the scene load
        _malloc_trim(0)

    with _timed(timings, "scene"):
        scene = _load_or_generate_scene(config)

    with _timed(timings, "weights"):
        bundle = _load_or_build_bundle(config)
        validate_bundle(bundle, model)

    with _timed(timings, "anchors"):
        arrays = init_anchors(config.gaussian_count, config.grid, seeds["anchors"], model=model)

    arrays["feature"], front_end_timings, front_end_workers = _front_end(
        config, scene, bundle, arrays, threads_requested
    )
    timings.update(front_end_timings)
    truth = scene.truth
    del scene  # the views and depth planes are not read again
    if _malloc_trim is not None:  # the dropped camera planes would sit under the head
        _malloc_trim(0)

    with _timed(timings, "head"):
        head_params = head.HeadParams.from_bundle(bundle, model, config.grid)
        arrays = head.run_head(arrays, head_params, threads=threads_requested)

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
        "threads": workers.count(threads_requested, -(-config.grid.dims[0] // head.TILE[0])),  # the splat's
        "eval_workers": workers.count(threads_requested, _eval_pieces(int(np.prod(config.grid.dims)))),
        "head_workers": head._plane_workers(threads_requested, config.gaussian_count, model.feature_width),
        "front_end_workers": front_end_workers,
        "threads_requested": threads_requested,
        "anchor_count": config.gaussian_count,
        "stage_timings_s": {k: round(v, 6) for k, v in timings.items()},
        # high-water RSS of this process so far, and of the largest child it
        # has waited for, i.e. a forked worker of any stage (Linux reports KiB)
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
