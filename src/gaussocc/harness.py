"""Synthetic scenes, sensor degradation models, and brute-force oracles.

Scenes are built from a handful of class-labelled Gaussian blobs: the truth
grid assigns each voxel to its densest blob above a threshold, evaluating
each blob only inside its per-blob threshold box (exact, see
``_blob_truth``); depth planes carry each blob's XY footprint in the blob's
class channel (soft one-hot signatures plus noise, so lifting has linearly
recoverable signal), and camera planes carry projected image-space
footprints.  Everything is a pure function of (config, seed).  Planes are
made in the float64 layout the ``lifting`` containers keep (the depth planes
texel-major, rounded to float32 values plane by plane in place) or read into
it block by block, so the containers copy nothing.  ``save_scene`` writes the
file one section at a time (``_scene_sections``), so it is never held whole.

The oracles are deliberately naive: the dense splatter evaluates every
primitive at every voxel with no truncation, the bilinear sampler builds one
full corner array per corner, the sequential scan runs the state recurrence
token by token from its definition, and the Lovász reference sorts every
voxel's error for every present class.  No oracle shares code with the
kernel it checks, so a fault in the kernel cannot cancel out.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    QUATERNION_TOLERANCE,
    ClassTaxonomy,
    GaussianPrimitive,
    GridSpec,
    SemanticOccupancyGrid,
    _sigmoid,
    _softmax,
    make_covariance,
    stack_primitives,
    voxel_centers,
)
from .errors import ConfigurationError, FormatError
from .formats import _grid_sections, _open, _Reader, _read_grid, write_file
from .head import SsmParams
from .lifting import CameraView, DepthPlaneStack, MultiViewFeatureSet, project_to_view

DEGRADATION_MODES = ("none", "rain", "night")


@dataclass(frozen=True)
class SceneConfig:
    grid: GridSpec
    taxonomy: ClassTaxonomy
    feature_width: int = 32
    depth_planes: int = 8
    plane_shape: tuple[int, int] = (16, 24)
    cameras: int = 2
    camera_shape: tuple[int, int] = (32, 48)
    blob_range: tuple[int, int] = (3, 12)
    noise_sigma: float = 0.02
    truth_threshold: float = 0.1

    def __post_init__(self):
        if self.blob_range[0] < 1 or self.blob_range[1] < self.blob_range[0]:
            raise ConfigurationError("blob_range must request at least one blob", field="blob_range")
        if self.feature_width < self.taxonomy.c_sem:
            raise ConfigurationError(
                "feature_width must cover the class-signature channels", field="feature_width"
            )
        if self.cameras < 1:
            raise ConfigurationError("need at least one camera", field="cameras")
        if self.depth_planes < 1:
            raise ConfigurationError("need at least one depth plane", field="depth_planes")
        if len(self.plane_shape) != 2 or min(self.plane_shape) < 1:
            raise ConfigurationError("plane_shape must be two positive sizes", field="plane_shape")
        if len(self.camera_shape) != 2 or min(self.camera_shape) < 1:
            raise ConfigurationError("camera_shape must be two positive sizes", field="camera_shape")
        if not 0 <= self.noise_sigma < np.inf:  # also rejects NaN
            raise ConfigurationError("noise_sigma must be finite and >= 0", field="noise_sigma")
        if not 0 < self.truth_threshold < 1:  # also rejects NaN; the truth box radius needs ln t
            raise ConfigurationError("truth_threshold must be in (0, 1)", field="truth_threshold")


@dataclass(frozen=True)
class DegradationConfig:
    mode: str = "none"
    camera_noise_sigma: float = 0.0
    camera_dropout_fraction: float = 0.0
    lidar_noise_sigma: float = 0.0
    lidar_dropout_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in DEGRADATION_MODES:
            raise ConfigurationError(f"unknown degradation mode {self.mode!r}", field="mode")
        for name in ("camera_dropout_fraction", "lidar_dropout_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]", field=name)
        for name in ("camera_noise_sigma", "lidar_noise_sigma"):
            if not 0 <= getattr(self, name) < np.inf:  # also rejects NaN
                raise ConfigurationError(f"{name} must be finite and >= 0", field=name)


@dataclass(frozen=True)
class SyntheticScene:
    seed: int
    config: SceneConfig
    blob_centroids: np.ndarray
    blob_scales: np.ndarray
    blob_rotations: np.ndarray
    blob_classes: np.ndarray
    truth: SemanticOccupancyGrid
    stack: DepthPlaneStack
    views: MultiViewFeatureSet


def _camera_rig(config: SceneConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Outward-looking surround rig at the grid center: (intrinsics, extrinsics)."""
    h, w = config.camera_shape
    center = config.grid.origin + config.grid.extent / 2.0
    rig = []
    for k in range(config.cameras):
        yaw = 2.0 * np.pi * k / config.cameras
        forward = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        right = np.array([forward[1], -forward[0], 0.0])
        down = np.array([0.0, 0.0, -1.0])
        rot = np.stack([right, down, forward])
        extr = np.eye(4)
        extr[:3, :3] = rot
        extr[:3, 3] = -rot @ center
        intr = np.array(
            [[w / 2.0, 0.0, (w - 1) / 2.0], [0.0, w / 2.0, (h - 1) / 2.0], [0.0, 0.0, 1.0]]
        )
        rig.append((intr, extr))
    return rig


def _threshold_sigmas(threshold: float) -> float:
    """Mahalanobis radius sqrt(-2 ln t) at which a unit-peak Gaussian falls to ``threshold``."""
    return math.sqrt(-2.0 * math.log(threshold))


def _blob_truth(config: SceneConfig, centroids, scales, rotations, classes) -> SemanticOccupancyGrid:
    """Label each voxel with its densest blob's class where that density reaches the threshold.

    Each blob is evaluated only inside its threshold box: on axis k,
    exp(-q/2) >= t needs |d_k| <= sqrt(-2 ln t * Sigma_kk), and the box is that
    range padded by one voxel on each side (so float rounding of q at the
    edge drops no voxel) and clipped to the grid.  The labels equal those of
    one dense pass over every blob and voxel:

    - outside its box, a blob's density is below t;
    - so a voxel whose best density reaches t finds its winner, and every
      blob tied with it, among the blobs whose boxes cover it;
    - under the strict ``>`` update the first of those tied blobs wins, as
      in the dense pass, and a voxel whose best density stays below t is
      empty either way.
    """
    spec = config.grid
    axes = spec.axis_centers
    reach = _threshold_sigmas(config.truth_threshold)
    best_density = np.zeros(spec.dims)
    best_class = np.full(spec.dims, config.taxonomy.empty_id, dtype=np.uint8)
    for i in range(len(centroids)):
        sigma = make_covariance(scales[i], rotations[i])
        half = reach * np.sqrt(np.diag(sigma))
        # centre j = origin + (j + 0.5) * voxel lies within half of the centroid for lo < j < hi - 1
        lo = np.ceil((centroids[i] - half - spec.origin) / spec.voxel_size - 0.5) - 1
        hi = np.floor((centroids[i] + half - spec.origin) / spec.voxel_size - 0.5) + 2
        lo, hi = np.maximum(lo, 0).astype(np.int64), np.minimum(hi, spec.dims).astype(np.int64)
        if np.any(hi <= lo):
            continue
        box = tuple(slice(lo[a], hi[a]) for a in range(3))
        inv = np.linalg.inv(sigma)
        d = np.stack(np.meshgrid(*(axes[a][box[a]] - centroids[i, a] for a in range(3)), indexing="ij"), axis=-1)
        quad = np.einsum("...i,ij,...j->...", d, inv, d)
        dens = np.exp(-0.5 * quad)
        box_density, box_class = best_density[box], best_class[box]
        better = dens > box_density
        np.copyto(box_density, dens, where=better)
        box_class[better] = classes[i]
    best_class[best_density < config.truth_threshold] = config.taxonomy.empty_id
    return SemanticOccupancyGrid(spec=spec, labels=best_class)


def _add_noise_and_round(plane: np.ndarray, rng: np.random.Generator, sigma: float) -> None:
    """Add one noise draw to the float64 ``plane`` and round it to float32 values, in place."""
    plane += rng.normal(0.0, sigma, size=plane.shape)
    plane[...] = plane.astype(np.float32)


def generate_scene(config: SceneConfig, seed: int) -> SyntheticScene:
    """Deterministic synthetic scene for (config, seed)."""
    rng = np.random.default_rng(seed)
    n_blobs = int(rng.integers(config.blob_range[0], config.blob_range[1] + 1))
    lo = config.grid.origin + 0.1 * config.grid.extent
    hi = config.grid.origin + 0.9 * config.grid.extent
    centroids = lo + rng.random((n_blobs, 3)) * (hi - lo)
    v = float(np.max(config.grid.voxel_size))
    s_lo, s_hi = 1.5 * v, 4.0 * v
    scales = s_lo + rng.random((n_blobs, 3)) * (s_hi - s_lo)
    quats = rng.normal(size=(n_blobs, 4))
    rotations = quats / np.linalg.norm(quats, axis=1, keepdims=True)
    classes = rng.integers(0, config.taxonomy.c_sem, size=n_blobs)

    truth = _blob_truth(config, centroids, scales, rotations, classes)
    d = config.depth_planes
    h_l, w_l = config.plane_shape
    f = config.feature_width
    spec = config.grid

    z_edges = spec.origin[2] + spec.extent[2] * np.arange(d + 1) / d
    z_intervals = np.stack([z_edges[:-1], z_edges[1:]], axis=1)
    cell = np.array([spec.extent[0] / w_l, spec.extent[1] / h_l])
    xs = spec.origin[0] + (np.arange(w_l) + 0.5) * cell[0]
    ys = spec.origin[1] + (np.arange(h_l) + 0.5) * cell[1]
    # the (D, H, W, F) view of the texel-major float64 array the stack keeps
    planes = np.zeros((h_l, w_l, d, f)).transpose(2, 0, 1, 3)
    for i in range(n_blobs):
        sigma = make_covariance(scales[i], rotations[i])
        inv_xy = np.linalg.inv(sigma[:2, :2])
        dx = xs - centroids[i, 0]
        dy = ys - centroids[i, 1]
        quad = (
            inv_xy[0, 0] * (dx**2)[None, :]
            + inv_xy[1, 1] * (dy**2)[:, None]
            + 2.0 * inv_xy[0, 1] * dy[:, None] * dx[None, :]
        )
        footprint = np.exp(-0.5 * quad)
        z_centers = z_intervals.mean(axis=1)
        z_w = np.exp(-0.5 * (z_centers - centroids[i, 2]) ** 2 / sigma[2, 2])
        planes[:, :, :, classes[i]] += z_w[:, None, None] * footprint[None]
    for plane in planes:  # consecutive draws in D order are the stream of one (D, H, W, F) draw
        _add_noise_and_round(plane, rng, config.noise_sigma)
    stack = DepthPlaneStack(
        planes=planes,
        z_intervals=z_intervals,
        origin_xy=spec.origin[:2].copy(),
        cell_size=cell,
    )

    h_c, w_c = config.camera_shape
    views = []
    for intr, extr in _camera_rig(config):
        plane = np.zeros((h_c, w_c, f))
        uv, depths, _ = project_to_view(centroids, CameraView(plane=plane, intrinsics=intr, extrinsics=extr))
        for i in range(n_blobs):
            depth = depths[i]
            if depth <= 1e-3:
                continue
            u, v = uv[i]
            radius = np.clip(intr[0, 0] * float(np.mean(scales[i])) / depth, 1.0, w_c / 2.0)
            if u < -3 * radius or u > w_c - 1 + 3 * radius or v < -3 * radius or v > h_c - 1 + 3 * radius:
                continue
            du = np.arange(w_c) - u
            dv = np.arange(h_c) - v
            foot = np.exp(-0.5 * ((du**2)[None, :] + (dv**2)[:, None]) / radius**2)
            plane[:, :, classes[i]] += foot
        _add_noise_and_round(plane, rng, config.noise_sigma)
        views.append(CameraView(plane=plane, intrinsics=intr, extrinsics=extr))

    return SyntheticScene(
        seed=seed,
        config=config,
        blob_centroids=centroids,
        blob_scales=scales,
        blob_rotations=rotations,
        blob_classes=classes,
        truth=truth,
        stack=stack,
        views=MultiViewFeatureSet(views=tuple(views)),
    )


def degrade(scene: SyntheticScene, config: DegradationConfig) -> SyntheticScene:
    """Sensor degradation; the truth grid is never touched."""
    if config.mode == "none":
        return scene
    rng = np.random.default_rng(config.seed)
    cam_planes = []
    for view in scene.views.views:
        plane = view.plane.copy()
        if config.mode == "rain":
            plane = plane + rng.normal(0.0, 1.0, size=plane.shape) * (
                config.camera_noise_sigma * (np.abs(plane) + 0.5)
            )
            keep = rng.random(plane.shape[:2]) >= config.camera_dropout_fraction
            plane = plane * keep[:, :, None]
        else:  # night
            h, w = plane.shape[:2]
            cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
            rr = (np.arange(h)[:, None] - cy) ** 2 + (np.arange(w)[None, :] - cx) ** 2
            cone = rr <= (min(h, w) / 3.0) ** 2
            gain = np.where(cone, 1.0, 1.0 - config.camera_dropout_fraction)
            plane = plane * gain[:, :, None]
            plane = plane + rng.normal(0.0, 1.0, size=plane.shape) * config.camera_noise_sigma
        cam_planes.append(CameraView(plane=plane.astype(np.float32), intrinsics=view.intrinsics, extrinsics=view.extrinsics))

    lidar = scene.stack.planes.copy()
    if config.mode == "rain":
        lidar = lidar * (1.0 + rng.normal(0.0, 1.0, size=lidar.shape) * config.lidar_noise_sigma)
        keep = rng.random(lidar.shape[:3]) >= config.lidar_dropout_fraction
        lidar = lidar * keep[:, :, :, None]
    stack = DepthPlaneStack(
        planes=lidar.astype(np.float32),
        z_intervals=scene.stack.z_intervals,
        origin_xy=scene.stack.origin_xy,
        cell_size=scene.stack.cell_size,
    )
    return replace(scene, views=MultiViewFeatureSet(views=tuple(cam_planes)), stack=stack)


def blob_primitives(scene: SyntheticScene) -> tuple[dict, float]:
    """The scene's blobs as splat primitives, with a truncation radius in sigmas.

    Each blob becomes one primitive with the blob's centroid, log-scale and
    rotation, opacity logit 60 (sigmoid 1.0 in float64) and semantic logits
    +60 for the blob's class and -60 for the others.  The radius k is the
    smallest whole number of sigmas with exp(-k^2 / 2) < ``truth_threshold``
    (0 < threshold < 1), so outside a blob's truncation box its density is
    below the threshold.  Splatted at occupancy threshold
    ``truth_threshold``, the labels then equal ``scene.truth`` on every
    voxel that at most one blob's box covers (the blob law).
    """
    count = len(scene.blob_classes)
    logits = np.full((count, scene.config.taxonomy.c_sem), -60.0)
    logits[np.arange(count), scene.blob_classes] = 60.0
    arrays = {
        "centroid": scene.blob_centroids.copy(),
        "log_scale": np.log(scene.blob_scales),
        "rotation": scene.blob_rotations.copy(),
        "opacity_logit": np.full(count, 60.0),
        "semantic_logits": logits,
    }
    return arrays, float(math.floor(_threshold_sigmas(scene.config.truth_threshold)) + 1)


def oracle_dense_splat(
    primitives: Sequence[GaussianPrimitive],
    spec: GridSpec,
    *,
    occupancy_threshold: float = 0.1,
    semantic_classes: int | None = None,
) -> SemanticOccupancyGrid:
    """Reference splatter: every primitive evaluated at every voxel, no truncation."""
    if len(primitives) == 0:
        c_sem = semantic_classes or 17
        labels = np.full(spec.dims, c_sem, dtype=np.uint8)
        return SemanticOccupancyGrid(spec=spec, labels=labels, scores=np.zeros(spec.dims + (c_sem,)))
    arrays = stack_primitives(primitives)
    centers = voxel_centers(spec).reshape(-1, 3)
    scales = np.exp(arrays["log_scale"])
    opacity = _sigmoid(arrays["opacity_logit"])
    class_probs = _softmax(arrays["semantic_logits"])
    c_sem = class_probs.shape[1]
    density = np.zeros(len(centers))
    scores = np.zeros((len(centers), c_sem))
    for i in range(len(primitives)):
        inv = np.linalg.inv(make_covariance(scales[i], arrays["rotation"][i]))
        d = centers - arrays["centroid"][i]
        quad = np.einsum("vi,ij,vj->v", d, inv, d)
        g = opacity[i] * np.exp(-0.5 * quad)
        density += g
        scores += g[:, None] * class_probs[i]
    labels = np.where(density >= occupancy_threshold, np.argmax(scores, axis=-1), c_sem).astype(np.uint8)
    return SemanticOccupancyGrid(
        spec=spec, labels=labels.reshape(spec.dims), scores=scores.reshape(spec.dims + (c_sem,))
    )


def oracle_bilinear_sample(plane: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Reference bilinear sample of an H x W x F plane at (col, row) coordinates,
    one (..., F) corner array at a time.

    Texels outside the plane contribute zero, so fully out-of-bounds
    coordinates return the zero vector.
    """
    plane = np.asarray(plane, dtype=np.float64)
    uv = np.asarray(uv, dtype=np.float64)
    h, w, f = plane.shape
    u, v = uv[..., 0], uv[..., 1]
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    du, dv = u - u0, v - v0
    out = np.zeros(uv.shape[:-1] + (f,))
    for ui, vi, wgt in (
        (u0, v0, (1 - du) * (1 - dv)),
        (u0 + 1, v0, du * (1 - dv)),
        (u0, v0 + 1, (1 - du) * dv),
        (u0 + 1, v0 + 1, du * dv),
    ):
        mask = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
        ci = np.clip(ui, 0, w - 1)
        ri = np.clip(vi, 0, h - 1)
        out += (wgt * mask)[..., None] * plane[ri, ci]
    return out


def oracle_sequential_scan(tokens: np.ndarray, params: SsmParams) -> np.ndarray:
    """Reference recurrence, one token at a time from the definition, sharing no code with ``head``."""
    x = np.asarray(tokens, dtype=np.float64)
    h = np.zeros((params.a.shape[0], params.a.shape[1]))
    out = np.empty_like(x)
    for t in range(x.shape[0]):
        delta_t = np.logaddexp(0.0, x[t] @ params.w_delta + params.b_delta)
        b_t = x[t] @ params.w_b
        c_t = x[t] @ params.w_c
        abar = np.exp(delta_t[:, None] * params.a)
        bbar = (abar - 1.0) / params.a * b_t[None, :]
        h = abar * h + bbar * x[t][:, None]
        out[t] = h @ c_t + params.d_skip * x[t]
    return out


def oracle_lovasz_per_class(
    probs: np.ndarray, labels: np.ndarray, excluded_class: int | None
) -> dict[int, float]:
    """Reference Lovász hinge: one full-volume stable sort per present class, sharing no code with ``metrics``.

    The gradient differences the Jaccard loss |M_k| / |F_c ∪ M_k| of the sorted prefixes M_k.
    """
    probs = np.asarray(probs, dtype=np.float64).reshape(-1, np.asarray(probs).shape[-1])
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    predicted = np.argmax(probs, axis=-1)
    present = set(np.unique(labels)) | set(np.unique(predicted))
    losses: dict[int, float] = {}
    for c in sorted(present):
        if excluded_class is not None and c == excluded_class:
            continue
        fg = (labels == c).astype(np.float64)
        errors = np.where(fg == 1.0, 1.0 - probs[:, c], probs[:, c])
        order = np.argsort(-errors, kind="stable")
        prefix = np.arange(1, len(order) + 1)  # |M_k|; |F_c ∪ M_k| = |F_c| + |M_k| - |F_c ∩ M_k|
        jaccard = prefix / (fg.sum() + prefix - np.cumsum(fg[order]))
        losses[int(c)] = float(np.dot(errors[order], np.diff(jaccard, prepend=0.0)))
    return losses


# ---------------------------------------------------------------------------
# scene file codec: text header + binary plane/truth blocks
# ---------------------------------------------------------------------------

SCENE_MAGIC = b"GSCN1\n"


def _fmt_floats(a) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(a, dtype=np.float64).reshape(-1))


def _scene_sections(scene: SyntheticScene):
    """The scene file in order: the header, each depth plane and each camera
    plane as ``<f4``, then the truth grid's length and its GOC1 sections."""
    cfg = scene.config
    lines = [
        f"seed={scene.seed}",
        f"grid.origin={_fmt_floats(cfg.grid.origin)}",
        f"grid.voxel={_fmt_floats(cfg.grid.voxel_size)}",
        "grid.dims=" + " ".join(str(d) for d in cfg.grid.dims),
        "classes=" + ",".join(cfg.taxonomy.names),
        f"class_weights={_fmt_floats(cfg.taxonomy.class_weights)}",
        f"feature_width={cfg.feature_width}",
        f"noise_sigma={cfg.noise_sigma!r}",
        f"truth_threshold={cfg.truth_threshold!r}",
        f"blob_range={cfg.blob_range[0]} {cfg.blob_range[1]}",
        f"plane_shape={cfg.plane_shape[0]} {cfg.plane_shape[1]}",
        f"camera_shape={cfg.camera_shape[0]} {cfg.camera_shape[1]}",
        f"depth_planes={cfg.depth_planes}",
        f"stack.z_intervals={_fmt_floats(scene.stack.z_intervals)}",
        f"stack.origin_xy={_fmt_floats(scene.stack.origin_xy)}",
        f"stack.cell_size={_fmt_floats(scene.stack.cell_size)}",
        f"cameras={cfg.cameras}",
    ]
    for i, view in enumerate(scene.views.views):
        lines.append(f"cam{i}.intrinsics={_fmt_floats(view.intrinsics)}")
        lines.append(f"cam{i}.extrinsics={_fmt_floats(view.extrinsics)}")
    lines.append(f"blobs={len(scene.blob_classes)}")
    for i in range(len(scene.blob_classes)):
        row = np.concatenate(
            [scene.blob_centroids[i], scene.blob_scales[i], scene.blob_rotations[i]]
        )
        lines.append(f"blob{i}={_fmt_floats(row)} {int(scene.blob_classes[i])}")
    yield SCENE_MAGIC + ("\n".join(lines) + "\nEND_HEADER\n").encode("ascii")

    for plane in scene.stack.planes:
        yield np.ascontiguousarray(plane, dtype="<f4")
    for view in scene.views.views:
        yield np.ascontiguousarray(view.plane, dtype="<f4")
    header, labels = _grid_sections(scene.truth, class_count=cfg.taxonomy.c_total)
    yield (len(header) + labels.nbytes).to_bytes(8, "little")
    yield header
    yield labels


def dump_scene(scene: SyntheticScene) -> bytes:
    return b"".join(_scene_sections(scene))


def save_scene(scene: SyntheticScene, path) -> None:
    """Write the scene's file to ``path`` one section at a time."""
    write_file(path, _scene_sections(scene))


# scene header key of each GridSpec and DepthPlaneStack field; SceneConfig and
# ClassTaxonomy fields share their key's name
_HEADER_KEYS = {
    "dims": "grid.dims",
    "voxel_size": "grid.voxel",
    "origin": "grid.origin",
    "origin_xy": "stack.origin_xy",
    "cell_size": "stack.cell_size",
}


class _SceneHeader:
    """The ``key=value`` lines of a scene header, each kept with its byte offset.

    Every fault (a missing or repeated key, a non-ASCII byte, a wrong value
    count, an unparsable or non-finite number) is a FormatError at the
    line's offset; a repeated key faults at its second line.
    """

    def __init__(self, r: _Reader):
        self.fields: dict[str, tuple[str, int]] = {}
        while True:
            offset = r.offset
            line = r.line()
            if line == b"END_HEADER":
                break
            try:
                key, _, value = line.decode("ascii").partition("=")
            except UnicodeDecodeError as exc:
                raise FormatError("non-ASCII byte in scene header", offset=offset + exc.start) from None
            if key in self.fields:
                raise FormatError(f"scene header repeats {key}", offset=offset)
            self.fields[key] = (value, offset)
        self.end = offset

    @contextmanager
    def checked(self, key: str | None = None):
        """Re-raise a ConfigurationError from the enclosed block as a FormatError
        at the line of ``key``, or of the header key its ``field`` names."""
        try:
            yield
        except ConfigurationError as exc:
            key = key or _HEADER_KEYS.get(exc.field, exc.field)
            raise FormatError(f"invalid scene header {key}: {exc}", offset=self.field(key)[1]) from None

    def field(self, key: str) -> tuple[str, int]:
        """Raw value of ``key`` and the byte offset of its line."""
        if key not in self.fields:
            raise FormatError(f"scene header has no {key}", offset=self.end)
        return self.fields[key]

    def values(self, key: str, kind, count: int) -> list:
        value, offset = self.field(key)
        tokens = value.split()
        if len(tokens) != count:
            raise FormatError(f"scene header {key} holds {len(tokens)} values, expected {count}", offset=offset)
        try:
            out = [kind(t) for t in tokens]
        except ValueError:
            raise FormatError(f"unparsable number in scene header {key}", offset=offset) from None
        if kind is float and not all(math.isfinite(v) for v in out):
            raise FormatError(f"non-finite value in scene header {key}", offset=offset)
        return out

    def value(self, key: str, kind):
        return self.values(key, kind, 1)[0]

    def floats(self, key: str, *shape: int) -> np.ndarray:
        return np.array(self.values(key, float, math.prod(shape))).reshape(shape)


def parse_scene(data: bytes) -> SyntheticScene:
    return _read_scene(io.BytesIO(data))


def load_scene(path) -> SyntheticScene:
    with _open(path, "scene") as stream:
        return _read_scene(stream)


def _read_scene(stream) -> SyntheticScene:
    r = _Reader(stream, "scene file")
    if r.take(len(SCENE_MAGIC)) != SCENE_MAGIC:
        raise FormatError("bad scene magic", offset=0)
    header = _SceneHeader(r)

    names = tuple(header.field("classes")[0].split(","))
    with header.checked():
        taxonomy = ClassTaxonomy(names=names, class_weights=header.floats("class_weights", len(names) + 1))
        grid = GridSpec(
            origin=header.floats("grid.origin", 3),
            voxel_size=header.floats("grid.voxel", 3),
            dims=tuple(header.values("grid.dims", int, 3)),
        )
        cfg = SceneConfig(
            grid=grid,
            taxonomy=taxonomy,
            feature_width=header.value("feature_width", int),
            depth_planes=header.value("depth_planes", int),
            plane_shape=tuple(header.values("plane_shape", int, 2)),
            cameras=header.value("cameras", int),
            camera_shape=tuple(header.values("camera_shape", int, 2)),
            blob_range=tuple(header.values("blob_range", int, 2)),
            noise_sigma=header.value("noise_sigma", float),
            truth_threshold=header.value("truth_threshold", float),
        )
    count = header.value("blobs", int)
    if not cfg.blob_range[0] <= count <= cfg.blob_range[1]:
        raise FormatError(f"scene header blobs={count} is outside blob_range {cfg.blob_range}",
                          offset=header.field("blobs")[1])
    for key, (_, offset) in header.fields.items():
        j = key[4:]  # compared by length first: int() refuses a string of over 4,300 digits
        if key.startswith("blob") and j.isdigit() and (len(j) > len(str(count)) or int(j) >= count):
            raise FormatError(f"scene header {key} is past its blobs={count}", offset=offset)
    # one row per blob: centroid (3), scale (3), rotation (4), class id
    blobs = np.array([header.floats(f"blob{i}", 11) for i in range(count)]).reshape(-1, 11)
    for i, row in enumerate(blobs):
        if not (
            row[10].is_integer()
            and 0 <= row[10] < taxonomy.c_sem
            and np.all(row[3:6] > 0)
            and abs(np.linalg.norm(row[6:10]) - 1.0) <= QUATERNION_TOLERANCE
        ):
            raise FormatError(
                f"invalid scene header blob{i}: needs positive scales, a unit quaternion"
                f" and a class id in [0, {taxonomy.c_sem})",
                offset=header.field(f"blob{i}")[1],
            )

    # the file holds the planes (D, H, W, F); they are kept texel-major, (H, W, D, F)
    d, (h_l, w_l), f = cfg.depth_planes, cfg.plane_shape, cfg.feature_width
    texel_major = r.empty((h_l, w_l, d, f), np.float64)
    planes = r.finite_f32(texel_major.transpose(2, 0, 1, 3), "depth planes")
    with header.checked():
        stack = DepthPlaneStack(
            planes=planes,
            z_intervals=header.floats("stack.z_intervals", d, 2),
            origin_xy=header.floats("stack.origin_xy", 2),
            cell_size=header.floats("stack.cell_size", 2),
        )
    # one (cameras, H, W, F) array, each view a view of it: above glibc's 32 MiB
    # cap on its mmap threshold (36 MiB on occ3d) it is always its own mapping,
    # unmapped when dropped, where planes apart can come from the C heap and
    # stay resident under the next call's scene load
    cam_planes = r.empty((cfg.cameras, *cfg.camera_shape, f), np.float64)
    views = []
    for i, plane in enumerate(cam_planes):
        r.finite_f32(plane, f"camera plane {i}")
        with header.checked(f"cam{i}.intrinsics"):
            views.append(
                CameraView(
                    plane=plane,
                    intrinsics=header.floats(f"cam{i}.intrinsics", 3, 3),
                    extrinsics=header.floats(f"cam{i}.extrinsics", 4, 4),
                )
            )
    (truth_len,) = r.unpack("Q")
    truth_start = r.offset
    truth = _read_grid(r.section(truth_len, "truth grid"))
    r.expect_end()
    if truth.spec != grid or truth.labels.max() >= taxonomy.c_total:
        raise FormatError("truth grid does not match the scene header's grid or classes", offset=truth_start)
    return SyntheticScene(
        seed=header.value("seed", int),
        config=cfg,
        blob_centroids=blobs[:, 0:3],
        blob_scales=blobs[:, 3:6],
        blob_rotations=blobs[:, 6:10],
        blob_classes=blobs[:, 10].astype(np.int64),
        truth=truth,
        stack=stack,
        views=MultiViewFeatureSet(views=tuple(views)),
    )
