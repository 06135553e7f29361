"""Domain types and geometry helpers shared by every pipeline stage.

The unit of computation is the anisotropic Gaussian primitive: a centroid,
per-axis scales (kept in log space so additive refinement can never produce
a non-positive extent), a unit rotation quaternion, an opacity logit, a
semantic logit vector, and a latent feature embedding.  The pipeline carries
many primitives as one struct-of-arrays dict (``init_anchors``), one row per
primitive; ``GaussianPrimitive`` is the validated single-primitive value the
reference paths build.  The types here are immutable value objects; arrays
are frozen after construction so instances can be shared freely across
threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvalidRotationError

QUATERNION_TOLERANCE = 1e-6
DEFAULT_SCALE_CHOICES = (0.2, 0.5, 1.0)


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _softplus(x):
    """log(1 + exp(x)) of a float array as log1p(exp(-|x|)), plus x where x > 0, in one buffer."""
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.add(out, x, out=out, where=x > 0)
    return out


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax(x, axis=-1):
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned voxel grid: origin corner, per-axis voxel size, voxel counts.

    origin and voxel_size are coerced through float32 so that grid files
    (which store f32 geometry) round-trip exactly.
    """

    origin: np.ndarray
    voxel_size: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        origin = _frozen(np.asarray(self.origin, dtype=np.float32), np.float64)
        voxel = _frozen(np.asarray(self.voxel_size, dtype=np.float32), np.float64)
        dims = tuple(int(d) for d in self.dims)
        if origin.shape != (3,) or voxel.shape != (3,):
            raise ConfigurationError("grid origin and voxel_size must be 3-vectors")
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ConfigurationError("grid dims must be three positive integers", field="dims")
        if not np.all(np.isfinite(origin)):
            raise ConfigurationError("grid origin must be finite in float32", field="origin")
        if not np.all((voxel > 0) & np.isfinite(voxel)):
            raise ConfigurationError("voxel_size must be positive and finite in float32", field="voxel_size")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "voxel_size", voxel)
        object.__setattr__(self, "dims", dims)

    @property
    def extent(self) -> np.ndarray:
        return self.voxel_size * np.asarray(self.dims, dtype=np.float64)

    @property
    def upper(self) -> np.ndarray:
        return self.origin + self.extent

    @property
    def axis_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Voxel-centre coordinates along each axis: origin + (arange(dims) + 0.5) * voxel_size."""
        return tuple(self.origin[a] + (np.arange(self.dims[a]) + 0.5) * self.voxel_size[a] for a in range(3))


def voxel_center(spec: GridSpec, index) -> np.ndarray:
    """Center of the voxel at ``index``: origin + (index + 0.5) * voxel_size."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (3,):
        raise IndexError(f"voxel index must be a 3-tuple, got shape {idx.shape}")
    if np.any(idx < 0) or np.any(idx >= np.asarray(spec.dims)):
        raise IndexError(f"voxel index {tuple(idx)} outside dims {spec.dims}")
    return spec.origin + (idx + 0.5) * spec.voxel_size


def voxel_centers(spec: GridSpec) -> np.ndarray:
    """All voxel centers as an (X, Y, Z, 3) array."""
    gx, gy, gz = np.meshgrid(*spec.axis_centers, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


@dataclass(frozen=True)
class ClassTaxonomy:
    """Semantic class list plus the trailing empty class and balancing weights."""

    names: tuple[str, ...]
    class_weights: np.ndarray

    def __post_init__(self):
        weights = _frozen(self.class_weights)
        if weights.shape != (len(self.names) + 1,):
            raise ConfigurationError(
                "class_weights must cover every semantic class plus empty",
                field="class_weights",
            )
        if np.any(weights <= 0):
            raise ConfigurationError("class weights must be positive", field="class_weights")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "class_weights", weights)

    @property
    def c_sem(self) -> int:
        return len(self.names)

    @property
    def c_total(self) -> int:
        return len(self.names) + 1

    @property
    def empty_id(self) -> int:
        return self.c_total - 1


NUSCENES_CLASS_NAMES = (
    "others",
    "barrier",
    "bicycle",
    "bus",
    "car",
    "construction_vehicle",
    "motorcycle",
    "pedestrian",
    "traffic_cone",
    "trailer",
    "truck",
    "driveable_surface",
    "other_flat",
    "sidewalk",
    "terrain",
    "manmade",
    "vegetation",
)

KITTI_CLASS_NAMES = (
    "road",
    "sidewalk",
    "parking",
    "other_ground",
    "building",
    "car",
    "truck",
    "bicycle",
    "motorcycle",
    "other_vehicle",
    "vegetation",
    "trunk",
    "terrain",
    "person",
    "bicyclist",
    "motorcyclist",
    "fence",
    "pole",
    "traffic_sign",
)


def default_taxonomy(names: tuple[str, ...] = NUSCENES_CLASS_NAMES) -> ClassTaxonomy:
    """Taxonomy with unit weights except the two upweighted rare classes."""
    weights = np.ones(len(names) + 1)
    for cls, w in (("construction_vehicle", 1.30), ("bicycle", 1.27)):
        if cls in names:
            weights[names.index(cls)] = w
    return ClassTaxonomy(names=names, class_weights=weights)


@dataclass(frozen=True)
class SemanticOccupancyGrid:
    """Dense voxel labels (class ids) plus optional per-class score volumes."""

    spec: GridSpec
    labels: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        labels = _frozen(self.labels, np.uint8)
        if labels.shape != self.spec.dims:
            raise ConfigurationError(
                f"label shape {labels.shape} does not match grid dims {self.spec.dims}"
            )
        object.__setattr__(self, "labels", labels)
        if self.scores is not None:
            scores = _frozen(self.scores)
            if scores.shape[:3] != self.spec.dims:
                raise ConfigurationError("score volume does not match grid dims")
            object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class GaussianPrimitive:
    """One anisotropic Gaussian scene element.

    ``log_scale`` holds the per-axis extents in log-meters; ``scale`` is the
    exponentiated (strictly positive) view.  The rotation quaternion is
    (w, x, y, z) and must be unit-norm within 1e-6.
    """

    centroid: np.ndarray
    log_scale: np.ndarray
    rotation: np.ndarray
    opacity_logit: float
    semantic_logits: np.ndarray
    feature: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        centroid = _frozen(self.centroid)
        log_scale = _frozen(self.log_scale)
        rotation = _frozen(self.rotation)
        logits = _frozen(self.semantic_logits)
        feat = _frozen(self.feature)
        if centroid.shape != (3,) or log_scale.shape != (3,):
            raise ConfigurationError("centroid and log_scale must be 3-vectors")
        if rotation.shape != (4,):
            raise InvalidRotationError("rotation must be a 4-vector quaternion")
        norm = float(np.linalg.norm(rotation))
        if abs(norm - 1.0) > QUATERNION_TOLERANCE:
            raise InvalidRotationError(f"quaternion norm {norm} not unit within {QUATERNION_TOLERANCE}")
        object.__setattr__(self, "centroid", centroid)
        object.__setattr__(self, "log_scale", log_scale)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "opacity_logit", float(self.opacity_logit))
        object.__setattr__(self, "semantic_logits", logits)
        object.__setattr__(self, "feature", feat)

    @property
    def scale(self) -> np.ndarray:
        return np.exp(self.log_scale)


def normalize_quaternion(q: np.ndarray) -> np.ndarray:
    """Rescale to unit norm; near-zero quaternions cannot be normalized."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm < QUATERNION_TOLERANCE):
        raise InvalidRotationError("quaternion norm too small to renormalize")
    return q / norm


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z); batched over leading axes."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = (q[..., i] for i in range(4))
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def make_covariance(scale: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Covariance R diag(scale^2) R^T of one primitive (batched over leading axes).

    Raises InvalidRotationError when the quaternion is off unit norm by more
    than the shared tolerance.
    """
    scale = np.asarray(scale, dtype=np.float64)
    rotation = np.asarray(rotation, dtype=np.float64)
    if np.any(scale <= 0):
        raise ConfigurationError("scale must be componentwise positive")
    norm = np.linalg.norm(rotation, axis=-1)
    if np.any(np.abs(norm - 1.0) > QUATERNION_TOLERANCE):
        raise InvalidRotationError("quaternion norm not unit within tolerance")
    rot = quaternion_to_matrix(rotation / norm[..., None])
    scaled = rot * (scale**2)[..., None, :]
    return scaled @ np.swapaxes(rot, -1, -2)


@dataclass(frozen=True)
class ModelConfig:
    """Widths and counts shared by the lifting, fusion and refinement stages."""

    feature_width: int = 128
    state_width: int = 16
    lidar_keypoints: int = 4
    image_keypoints: int = 4
    depth_chunks: int = 4
    depth_planes: int = 8
    head_blocks: int = 4
    semantic_classes: int = 17
    scale_choices: tuple[float, ...] = DEFAULT_SCALE_CHOICES

    def __post_init__(self):
        for name in (
            "feature_width",
            "state_width",
            "lidar_keypoints",
            "image_keypoints",
            "depth_chunks",
            "depth_planes",
            "head_blocks",
            "semantic_classes",
        ):
            if int(getattr(self, name)) < 1:
                raise ConfigurationError(f"{name} must be >= 1", field=name)
        if self.depth_chunks > self.depth_planes:
            raise ConfigurationError("depth_chunks cannot exceed depth_planes", field="depth_chunks")

    @property
    def consistency_width(self) -> int:
        return max(self.feature_width // 2, 1)

    @property
    def decode_width(self) -> int:
        # centroid offset (3) + log-scale delta (3) + quaternion delta (4)
        # + opacity logit (1) + semantic logits
        return 11 + self.semantic_classes


def init_anchors(
    count: int,
    spec: GridSpec,
    seed: int,
    *,
    model: ModelConfig | None = None,
) -> dict[str, np.ndarray]:
    """Seeded uniform anchors inside the grid box, as struct-of-arrays.

    Centroids come from a counter-based Philox stream so the layout is a pure
    function of (count, spec, seed); rotations are identity, logits zero, and
    each anchor draws its initial scale from the configured discrete set.
    The keys and row layout are those of ``stack_primitives``.
    """
    if count < 1:
        raise ConfigurationError("anchor count must be >= 1", field="gaussian_count")
    model = model or ModelConfig()
    rng = np.random.Generator(np.random.Philox(seed))
    centroids = spec.origin + rng.random((count, 3)) * spec.extent
    choices = np.asarray(model.scale_choices, dtype=np.float64)
    log_scales = np.log(choices[rng.integers(0, len(choices), size=count)])
    return {
        "centroid": centroids,
        "log_scale": np.repeat(log_scales[:, None], 3, axis=1),
        "rotation": np.tile([1.0, 0.0, 0.0, 0.0], (count, 1)),
        "opacity_logit": np.zeros(count),
        "semantic_logits": np.zeros((count, model.semantic_classes)),
        "feature": np.zeros((count, model.feature_width)),
    }


def stack_primitives(primitives) -> dict[str, np.ndarray]:
    """Struct-of-arrays form of a primitive list, one row per primitive."""
    return {
        "centroid": np.array([p.centroid for p in primitives]),
        "log_scale": np.array([p.log_scale for p in primitives]),
        "rotation": np.array([p.rotation for p in primitives]),
        "opacity_logit": np.array([p.opacity_logit for p in primitives]),
        "semantic_logits": np.array([p.semantic_logits for p in primitives]),
        "feature": np.array([p.feature for p in primitives]),
    }
