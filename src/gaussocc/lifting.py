"""Feature lifting onto Gaussian anchors.

Camera branch: anchor centroids are pinhole-projected into each view and
sampled at a small set of learned pixel offsets with softmax weights, then
averaged over the views that see the anchor.

LiDAR branch: the depth-plane stack is sampled at learned 3D keypoints
around each anchor (one feature row per depth level), the rows are
mean-pooled in contiguous depth chunks, chunk context modulates the last
chunk through a sigmoid mask, and a learnable soft gate blends the modulated
vector with the global depth mean.  The paper's training-time shuffle of the
depth levels is not reproduced: this pipeline runs forward only.

``lift_lidar`` is the plain LDFA chain over whatever anchors it is given;
the pipeline's front end (``pipeline._front_end``) cuts the anchors into
blocks and lifts, smooths and fuses each block in turn, so no (N, D, F)
tensor over every anchor is held.  Every product is a ``core._product``
(row blocks that OpenBLAS runs on the calling thread) and every other
operation is per anchor, so a block's rows are bitwise those of the chain
over every anchor at once and no forked worker starts BLAS threads.

The scene containers own their storage: float64 planes, a stack's stored
texel-major, (H, W, D, F) in memory, so ``DepthPlaneStack.texel_rows`` is a view.

Both branches sample planes through one gather-and-reduce kernel:
``_bilinear_taps`` turns sample coordinates and weights into flat texel
indices and tap weights (corner weight x in-bounds mask x sample weight),
and ``_reduce_taps`` gathers the texels in cache-sized anchor chunks and
sums them with one batched matmul.  Taps are built once per camera view,
for the (anchor, view) pairs that project into the view only (the others
are never sampled), and once for all depth levels, which reduce together
against the stack's ``texel_rows``.  Out-of-bounds taps read a clipped texel
with weight zero, so they contribute zeros rather than clamped edge values.
The summation order differs from the per-corner reference
``harness.oracle_bilinear_sample``; tests/test_lifting.py holds both
branches within 1e-12 of references built from it.

Every operation is a pure function vectorized over leading anchor axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _product, _sigmoid, _softmax
from .errors import ConfigurationError
from .params import ParameterBundle

# Byte budget of one gathered (rows, taps, channels) block in _reduce_taps.
# Blocks that stay in a core's L2 cache reduce fastest: on a 2 MB-L2 Xeon,
# occ3d-sized depth sampling took 0.23-0.27 s with 0.5 MB blocks and
# 0.49 s with 16 MB blocks.
_GATHER_BYTES = 2**19


@dataclass(frozen=True)
class CameraView:
    """One feature plane with its pinhole calibration (world-to-camera 4x4)."""

    plane: np.ndarray
    intrinsics: np.ndarray
    extrinsics: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plane", np.asarray(self.plane, dtype=np.float64))
        if self.plane.ndim != 3:
            raise ConfigurationError("camera plane must be H x W x F")
        if self.intrinsics.shape != (3, 3) or self.extrinsics.shape != (4, 4):
            raise ConfigurationError("camera calibration shapes must be 3x3 and 4x4")
        if self.intrinsics[0, 0] <= 0 or self.intrinsics[1, 1] <= 0:
            raise ConfigurationError("camera focal lengths must be positive")


@dataclass(frozen=True)
class MultiViewFeatureSet:
    views: tuple[CameraView, ...]

    def __post_init__(self):
        if not self.views:
            raise ConfigurationError("at least one camera view is required")
        widths = {v.plane.shape[-1] for v in self.views}
        if len(widths) != 1:
            raise ConfigurationError("all camera planes must share the feature width")
        object.__setattr__(self, "views", tuple(self.views))

    @property
    def feature_width(self) -> int:
        return self.views[0].plane.shape[-1]


@dataclass(frozen=True)
class DepthPlaneStack:
    """D stacked feature planes indexed by a z-interval each.

    ``origin_xy``/``cell_size`` geo-reference plane texels: texel (row r,
    col c) covers the cell centred at origin_xy + (c + 0.5, r + 0.5) * cell_size.
    ``planes`` is kept as the float64 (D, H, W, F) view of a C-contiguous
    (H, W, D, F) array: planes that already have that layout are not copied.
    """

    planes: np.ndarray
    z_intervals: np.ndarray
    origin_xy: np.ndarray
    cell_size: np.ndarray

    def __post_init__(self):
        if self.planes.ndim != 4 or self.planes.shape[0] < 1:
            raise ConfigurationError("depth planes must be D x H x W x F with D >= 1")
        if self.z_intervals.shape != (self.planes.shape[0], 2):
            raise ConfigurationError("z_intervals must give one interval per depth plane")
        origin = np.asarray(self.origin_xy, dtype=np.float64)
        if origin.shape != (2,) or not np.all(np.isfinite(origin)):
            raise ConfigurationError("stack origin_xy must be a finite 2-vector", field="origin_xy")
        cell = np.asarray(self.cell_size, dtype=np.float64)
        if cell.shape != (2,) or not np.all((cell > 0) & np.isfinite(cell)):
            raise ConfigurationError("stack cell_size must be two positive finite sizes", field="cell_size")
        texel_major = np.ascontiguousarray(self.planes.transpose(1, 2, 0, 3), dtype=np.float64)
        object.__setattr__(self, "planes", texel_major.transpose(2, 0, 1, 3))
        object.__setattr__(self, "origin_xy", origin)
        object.__setattr__(self, "cell_size", cell)

    @property
    def depth_levels(self) -> int:
        return self.planes.shape[0]

    @property
    def texel_rows(self) -> np.ndarray:
        """(H*W, D*F) view of the planes: one row holds a texel's features at every depth level."""
        d, h, w, f = self.planes.shape
        return self.planes.transpose(1, 2, 0, 3).reshape(h * w, d * f)

    def to_plane_coords(self, xy: np.ndarray) -> np.ndarray:
        """World (x, y) -> continuous (col, row) texel-center coordinates."""
        rel = (np.asarray(xy, dtype=np.float64) - self.origin_xy) / self.cell_size
        return rel - 0.5


@dataclass(frozen=True)
class KeypointSet:
    """Per anchor: P metric offsets and P non-negative attention weights."""

    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.offsets.shape[-1] != 3 or self.offsets.shape[-2] < 1:
            raise ConfigurationError("keypoint offsets must be ... x P x 3 with P >= 1")
        if self.weights.shape != self.offsets.shape[:-1]:
            raise ConfigurationError("keypoint weights must match offsets per anchor")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ConfigurationError("keypoint weights must be finite and non-negative")


@dataclass(frozen=True)
class CameraLiftParams:
    offsets: np.ndarray        # (P_img, 2) pixel offsets
    weight_logits: np.ndarray  # (P_img,)

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle) -> "CameraLiftParams":
        """Read from a bundle that ``params.validate_bundle`` has accepted."""
        return cls(
            offsets=bundle.get("lift.cam.offsets"),
            weight_logits=bundle.get("lift.cam.weight_logits"),
        )


@dataclass(frozen=True)
class KeypointParams:
    offset_w: np.ndarray  # (F, 3P)
    offset_b: np.ndarray  # (3P,)
    weight_w: np.ndarray  # (F, P)
    weight_b: np.ndarray  # (P,)

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle) -> "KeypointParams":
        """Read from a bundle that ``params.validate_bundle`` has accepted."""
        return cls(
            offset_w=bundle.get("lift.ldfa.offset.w"),
            offset_b=bundle.get("lift.ldfa.offset.b"),
            weight_w=bundle.get("lift.ldfa.weight.w"),
            weight_b=bundle.get("lift.ldfa.weight.b"),
        )


@dataclass(frozen=True)
class LdfaParams:
    phi_w: np.ndarray   # ((K-1) * F, F)
    phi_b: np.ndarray   # (F,)
    gate_w: np.ndarray  # (2F,)
    gate_b: float

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle) -> "LdfaParams":
        """Read from a bundle that ``params.validate_bundle`` has accepted."""
        return cls(
            phi_w=bundle.get("lift.ldfa.phi.w"),
            phi_b=bundle.get("lift.ldfa.phi.b"),
            gate_w=bundle.get("lift.ldfa.gate.w"),
            gate_b=float(bundle.get("lift.ldfa.gate.b")),
        )


def project_to_view(points: np.ndarray, view: CameraView):
    """Pinhole projection of world points into one view.

    Returns (uv, depth, valid); valid means depth > 0 and uv inside the
    texel-center domain [0, W-1] x [0, H-1].  Invalid is a flag, never an error.
    """
    pts = np.asarray(points, dtype=np.float64)
    cam = _product(pts, view.extrinsics[:3, :3].T) + view.extrinsics[:3, 3]
    depth = cam[..., 2]
    safe = np.where(depth == 0.0, 1.0, depth)
    fx, fy = view.intrinsics[0, 0], view.intrinsics[1, 1]
    cx, cy = view.intrinsics[0, 2], view.intrinsics[1, 2]
    u = cx + fx * cam[..., 0] / safe
    v = cy + fy * cam[..., 1] / safe
    uv = np.stack([u, v], axis=-1)
    h, w = view.plane.shape[:2]
    inside = (u >= 0) & (u <= w - 1) & (v >= 0) & (v <= h - 1)
    valid = (depth > 0) & inside
    return uv, depth, valid


def _bilinear_taps(uv: np.ndarray, h: int, w: int, weights: np.ndarray):
    """Flat texel indices and tap weights of bilinear samples on an H x W plane.

    ``uv`` is (M, P, 2) continuous (col, row) coordinates and ``weights`` the
    (M, P) or (P,) weight of each sample.  Returns (M, 4P) indices into the
    row-major flattened plane and (M, 4P) tap weights: corner weight x
    in-bounds mask x sample weight.  Indices come from clipped coordinates,
    so an out-of-bounds corner reads a valid texel with weight zero.
    """
    u, v = uv[..., 0], uv[..., 1]
    u0, v0 = np.floor(u), np.floor(v)
    du, dv = u - u0, v - v0
    # per axis: (index, weight x mask) of the lower and the upper corner
    # fmax/fmin clip a NaN coordinate to index 0; its tap weight stays NaN
    cols = [
        (np.fmin(np.fmax(u0, 0), w - 1), (1 - du) * ((u0 >= 0) & (u0 < w))),
        (np.fmin(np.fmax(u0 + 1, 0), w - 1), du * ((u0 >= -1) & (u0 < w - 1))),
    ]
    rows = [
        (np.fmin(np.fmax(v0, 0), h - 1), (1 - dv) * ((v0 >= 0) & (v0 < h))),
        (np.fmin(np.fmax(v0 + 1, 0), h - 1), dv * ((v0 >= -1) & (v0 < h - 1))),
    ]
    idx = np.concatenate([ri * w + ci for ri, _ in rows for ci, _ in cols], axis=-1)
    taps = np.concatenate([rw * cw * weights for _, rw in rows for _, cw in cols], axis=-1)
    return idx.astype(np.intp), taps


def _reduce_taps(flat_plane: np.ndarray, idx: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per row, the tap-weighted sum of the gathered texels: (M, 4P) -> (M, C).

    Rows are gathered in chunks so that one gathered (rows, 4P, C) block
    stays within _GATHER_BYTES.
    """
    m, k = idx.shape
    c = flat_plane.shape[1]
    out = np.empty((m, c))
    step = max(1, _GATHER_BYTES // (8 * k * max(c, 1)))
    for s in range(0, m, step):
        out[s : s + step] = np.matmul(taps[s : s + step, None, :], flat_plane[idx[s : s + step]])[:, 0]
    return out


def aggregate_camera(
    centroids: np.ndarray, views: MultiViewFeatureSet, params: CameraLiftParams
) -> np.ndarray:
    """Per-anchor camera feature: offset samples with softmax weights, view-averaged.

    Anchors with no valid projection get the zero vector.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    lead = centroids.shape[:-1]
    points = centroids.reshape(-1, 3)
    weights = _softmax(params.weight_logits)
    f = views.feature_width
    acc = np.zeros((len(points), f))
    count = np.zeros(len(points))
    for view in views.views:
        uv, _, valid = project_to_view(points, view)
        rows = np.flatnonzero(valid)
        h, w = view.plane.shape[:2]
        idx, taps = _bilinear_taps(uv[rows, None, :] + params.offsets, h, w, weights)
        acc[rows] += _reduce_taps(view.plane.reshape(h * w, f), idx, taps)
        count += valid
    return (acc / np.maximum(count, 1)[:, None]).reshape(lead + (f,))


def generate_keypoints(
    features: np.ndarray, scales: np.ndarray, params: KeypointParams
) -> KeypointSet:
    """Learned keypoints: offsets from a linear map of the feature, scaled by
    the anchor's per-axis scale; weights from a softmax head."""
    features = np.asarray(features, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    p = params.weight_w.shape[1]
    raw = _product(features, params.offset_w) + params.offset_b
    offsets = raw.reshape(raw.shape[:-1] + (p, 3)) * scales[..., None, :]
    weights = _softmax(_product(features, params.weight_w) + params.weight_b)
    return KeypointSet(offsets=offsets, weights=weights)


def ldfa_depth_sample(centroids: np.ndarray, keypoints: KeypointSet, stack: DepthPlaneStack) -> np.ndarray:
    """Weighted keypoint samples per depth level: one D x F row block per anchor.

    Keypoints project to plane coordinates by dropping z and geo-referencing
    (x, y) against the stack's XY extent.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    positions = centroids[..., None, :] + keypoints.offsets
    lead, p = positions.shape[:-2], positions.shape[-2]
    uv = stack.to_plane_coords(positions[..., :2]).reshape(-1, p, 2)
    weights = np.broadcast_to(keypoints.weights, lead + (p,)).reshape(-1, p)
    d, h, w, f = stack.planes.shape
    idx, taps = _bilinear_taps(uv, h, w, weights)
    return _reduce_taps(stack.texel_rows, idx, taps).reshape(lead + (d, f))


def chunk_means(f_depth: np.ndarray, chunks: int) -> np.ndarray:
    """Mean-pooled chunk representations C_k over K contiguous depth chunks.

    Each chunk holds D // K levels; the remainder goes to the last chunk.
    Each mean is written into its slot of the (..., K, F) result.
    """
    f_depth = np.asarray(f_depth, dtype=np.float64)
    depth_levels = f_depth.shape[-2]
    if not 1 <= chunks <= depth_levels:
        raise ConfigurationError(
            f"chunk count {chunks} must satisfy 1 <= K <= D={depth_levels}", field="depth_chunks"
        )
    size = depth_levels // chunks
    bounds = [k * size for k in range(chunks)] + [depth_levels]
    out = np.empty(f_depth.shape[:-2] + (chunks, f_depth.shape[-1]))
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.mean(f_depth[..., lo:hi, :], axis=-2, out=out[..., k, :])
    return out


def cross_depth_modulate(chunks: np.ndarray, params: LdfaParams) -> np.ndarray:
    """Context chunks gate the last chunk: sigmoid(linear(concat)) * C_K."""
    chunks = np.asarray(chunks, dtype=np.float64)
    k = chunks.shape[-2]
    if k < 2:
        raise ConfigurationError("cross-depth modulation needs at least two chunks", field="depth_chunks")
    context = chunks[..., : k - 1, :].reshape(chunks.shape[:-2] + ((k - 1) * chunks.shape[-1],))
    logit = _product(context, params.phi_w)
    logit += params.phi_b
    mask = _sigmoid(logit)
    mask *= chunks[..., k - 1, :]
    return mask


def gated_global_fusion(m: np.ndarray, f_depth: np.ndarray, params: LdfaParams) -> np.ndarray:
    """Soft-gated blend of the modulated vector with the global depth mean."""
    m = np.asarray(m, dtype=np.float64)
    g = np.mean(np.asarray(f_depth, dtype=np.float64), axis=-2)
    logit = _product(np.concatenate([m, g], axis=-1), params.gate_w) + params.gate_b
    alpha = _sigmoid(logit)[..., None]
    return alpha * m + (1.0 - alpha) * g


def lift_lidar(
    centroids: np.ndarray,
    features: np.ndarray,
    scales: np.ndarray,
    stack: DepthPlaneStack,
    keypoint_params: KeypointParams,
    ldfa_params: LdfaParams,
    chunks: int,
) -> np.ndarray:
    """Full LDFA chain: keypoints, depth sampling, chunking, modulation, gating.

    The inputs share their leading anchor axes, which every step keeps.
    """
    keypoints = generate_keypoints(features, scales, keypoint_params)
    f_depth = ldfa_depth_sample(centroids, keypoints, stack)
    modulated = cross_depth_modulate(chunk_means(f_depth, chunks), ldfa_params)
    return gated_global_fusion(modulated, f_depth, ldfa_params)
