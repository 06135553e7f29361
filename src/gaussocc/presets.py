"""Run configuration: dataset presets, flat key=value config files, overrides.

A run resolves preset defaults first, then config-file keys, then CLI flag
overrides (flags win).  Presets carry the grid geometry, taxonomy, anchor
budget and model widths for the supported dataset layouts; none of them
require network access.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    ClassTaxonomy,
    GridSpec,
    KITTI_CLASS_NAMES,
    ModelConfig,
    NUSCENES_CLASS_NAMES,
    default_taxonomy,
)
from .errors import ConfigurationError
from .fusion import FUSION_MODES
from .harness import SceneConfig

PRESET_NAMES = ("openocc", "occ3d", "kitti", "synthetic")

# grids follow the benchmark layout each preset mirrors
_PRESETS: dict[str, dict] = {
    "openocc": dict(
        grid_origin=(-51.2, -51.2, -5.0),
        grid_voxel=(0.2, 0.2, 0.2),
        grid_dims=(512, 512, 40),
        taxonomy=NUSCENES_CLASS_NAMES,
        gaussian_count=25600,
        feature_width=128,
        state_width=16,
        head_blocks=4,
        cameras=6,
        plane_shape=(64, 96),
        camera_shape=(64, 96),
    ),
    "occ3d": dict(
        grid_origin=(-51.2, -51.2, -2.0),
        grid_voxel=(0.4, 0.4, 0.4),
        grid_dims=(256, 256, 20),
        taxonomy=NUSCENES_CLASS_NAMES,
        gaussian_count=12800,
        feature_width=128,
        state_width=16,
        head_blocks=4,
        cameras=6,
        plane_shape=(64, 96),
        camera_shape=(64, 96),
    ),
    "kitti": dict(
        grid_origin=(0.0, -25.6, -2.0),
        grid_voxel=(0.2, 0.2, 0.2),
        grid_dims=(256, 256, 32),
        taxonomy=KITTI_CLASS_NAMES,
        gaussian_count=38400,
        feature_width=128,
        state_width=16,
        head_blocks=4,
        cameras=1,
        plane_shape=(64, 96),
        camera_shape=(48, 160),
    ),
    "synthetic": dict(
        grid_origin=(-8.0, -8.0, -2.0),
        grid_voxel=(0.5, 0.5, 0.25),
        grid_dims=(32, 32, 16),
        taxonomy=NUSCENES_CLASS_NAMES,
        gaussian_count=1024,
        feature_width=32,
        state_width=8,
        head_blocks=4,
        cameras=2,
        plane_shape=(16, 24),
        camera_shape=(32, 48),
    ),
}

_INT_KEYS = {
    "gaussian_count",
    "seed",
    "head_blocks",
    "feature_width",
    "state_width",
    "depth_planes",
    "depth_chunks",
    "lidar_keypoints",
    "image_keypoints",
    "cameras",
    "blob_min",
    "blob_max",
}
_FLOAT_KEYS = {"truncation_sigmas", "occupancy_threshold", "noise_sigma"}
_BOOL_KEYS = {"smoothing"}
_STR_KEYS = {"preset", "fusion_mode", "weights", "scene", "out"}
_VEC3_KEYS = {"grid_origin", "grid_voxel"}
_IVEC_KEYS = {"grid_dims", "plane_shape", "camera_shape"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS | _VEC3_KEYS | _IVEC_KEYS

# config keys of the GridSpec and SceneConfig fields whose names differ from
# them, so a fault names the key the user wrote (the first of several set)
_FIELD_KEYS = {
    "dims": ("grid_dims",),
    "voxel_size": ("grid_voxel",),
    "origin": ("grid_origin",),
    "blob_range": ("blob_min", "blob_max"),
}


@dataclass(frozen=True)
class RunConfig:
    preset: str
    seed: int
    out_dir: str
    gaussian_count: int
    fusion_mode: str
    smoothing: bool
    truncation_sigmas: float
    occupancy_threshold: float
    grid: GridSpec
    taxonomy: ClassTaxonomy
    model: ModelConfig
    scene_config: SceneConfig
    weights_path: str | None = None
    scene_path: str | None = None

    def flat(self) -> dict[str, str]:
        """Canonical flat view used for hashing and the manifest."""
        entries = {
            "preset": self.preset,
            "seed": str(self.seed),
            "gaussian_count": str(self.gaussian_count),
            "fusion_mode": self.fusion_mode,
            "smoothing": str(self.smoothing).lower(),
            "truncation_sigmas": repr(self.truncation_sigmas),
            "occupancy_threshold": repr(self.occupancy_threshold),
            "grid_origin": " ".join(repr(float(v)) for v in self.grid.origin),
            "grid_voxel": " ".join(repr(float(v)) for v in self.grid.voxel_size),
            "grid_dims": " ".join(str(d) for d in self.grid.dims),
            "classes": ",".join(self.taxonomy.names),
            "feature_width": str(self.model.feature_width),
            "state_width": str(self.model.state_width),
            "lidar_keypoints": str(self.model.lidar_keypoints),
            "image_keypoints": str(self.model.image_keypoints),
            "depth_chunks": str(self.model.depth_chunks),
            "depth_planes": str(self.model.depth_planes),
            "head_blocks": str(self.model.head_blocks),
            "weights": self.weights_path or "",
            "scene": self.scene_path or "",
            "cameras": str(self.scene_config.cameras),
            "plane_shape": " ".join(str(v) for v in self.scene_config.plane_shape),
            "camera_shape": " ".join(str(v) for v in self.scene_config.camera_shape),
            "blob_range": " ".join(str(v) for v in self.scene_config.blob_range),
            "noise_sigma": repr(self.scene_config.noise_sigma),
        }
        return dict(sorted(entries.items()))

    def config_hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in self.flat().items())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file; '#' starts a comment."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _coerce(key: str, value):
    if key not in KNOWN_KEYS:
        raise ConfigurationError(f"unknown configuration key {key!r}", field=key)
    if not isinstance(value, str):
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            if value.lower() in ("1", "true", "on", "yes"):
                return True
            if value.lower() in ("0", "false", "off", "no"):
                return False
            raise ValueError(value)
        if key in _VEC3_KEYS:
            vec = tuple(float(t) for t in value.replace(",", " ").split())
            if len(vec) != 3:
                raise ValueError(value)
            return vec
        if key in _IVEC_KEYS:
            return tuple(int(t) for t in value.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key}: {value!r}", field=key) from exc
    return value


def resolve_config(overrides: dict | None = None, file_overrides: dict | None = None) -> RunConfig:
    """Preset defaults, then config-file keys, then explicit overrides."""
    merged: dict = {}
    for source in (file_overrides or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            merged[key] = _coerce(key, value)

    preset = merged.get("preset", "synthetic")
    if preset not in _PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}", field="preset")
    base = _PRESETS[preset]

    gaussian_count = int(merged.get("gaussian_count", base["gaussian_count"]))
    if gaussian_count < 1:
        raise ConfigurationError("gaussian_count must be >= 1", field="gaussian_count")
    fusion_mode = merged.get("fusion_mode", "adaptive")
    if fusion_mode not in FUSION_MODES:
        raise ConfigurationError(f"fusion_mode must be one of {FUSION_MODES}", field="fusion_mode")
    truncation = float(merged.get("truncation_sigmas", 6.0))
    if not 1.0 <= truncation < np.inf:  # also rejects NaN
        raise ConfigurationError("truncation_sigmas must be finite and >= 1", field="truncation_sigmas")
    occupancy_threshold = float(merged.get("occupancy_threshold", 0.1))
    if not 0 < occupancy_threshold < np.inf:  # also rejects NaN; at <= 0 every voxel is occupied
        raise ConfigurationError("occupancy_threshold must be finite and > 0", field="occupancy_threshold")

    taxonomy = default_taxonomy(base["taxonomy"])
    model = ModelConfig(
        feature_width=int(merged.get("feature_width", base["feature_width"])),
        state_width=int(merged.get("state_width", base["state_width"])),
        lidar_keypoints=int(merged.get("lidar_keypoints", 4)),
        image_keypoints=int(merged.get("image_keypoints", 4)),
        depth_chunks=int(merged.get("depth_chunks", 4)),
        depth_planes=int(merged.get("depth_planes", 8)),
        head_blocks=int(merged.get("head_blocks", base["head_blocks"])),
        semantic_classes=taxonomy.c_sem,
    )
    try:
        grid = GridSpec(
            origin=np.array(merged.get("grid_origin", base["grid_origin"])),
            voxel_size=np.array(merged.get("grid_voxel", base["grid_voxel"])),
            dims=tuple(merged.get("grid_dims", base["grid_dims"])),
        )
        blob_min = int(merged.get("blob_min", 3))
        blob_max = int(merged.get("blob_max", 12))
        scene_config = SceneConfig(
            grid=grid,
            taxonomy=taxonomy,
            feature_width=model.feature_width,
            depth_planes=model.depth_planes,
            plane_shape=tuple(merged.get("plane_shape", base["plane_shape"])),
            cameras=int(merged.get("cameras", base["cameras"])),
            camera_shape=tuple(merged.get("camera_shape", base["camera_shape"])),
            blob_range=(blob_min, blob_max),
            noise_sigma=float(merged.get("noise_sigma", 0.02)),
        )
    except ConfigurationError as exc:
        keys = _FIELD_KEYS.get(exc.field)
        if keys is None:
            raise
        key = next((k for k in keys if k in merged), keys[0])
        raise ConfigurationError(f"bad value for {key}: {exc}", field=key) from None
    return RunConfig(
        preset=preset,
        seed=int(merged.get("seed", 0)),
        out_dir=str(merged.get("out", "out")),
        gaussian_count=gaussian_count,
        fusion_mode=fusion_mode,
        smoothing=bool(merged.get("smoothing", False)),
        truncation_sigmas=truncation,
        occupancy_threshold=occupancy_threshold,
        grid=grid,
        taxonomy=taxonomy,
        model=model,
        scene_config=scene_config,
        weights_path=merged.get("weights") or None,
        scene_path=merged.get("scene") or None,
    )
