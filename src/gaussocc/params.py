"""Seeded parameter bundle: every learned tensor the pipeline reads.

The artifact ships no trained weights.  A bundle is built deterministically
from a 64-bit seed: projection weights are uniform scaled by 1/sqrt(fan-in),
gate biases are zero, and the state-space specials (negative diagonal A,
softplus step bias, unit skip) follow the standard stable initialization.
Payloads are stored as float32 (the on-disk precision); compute sites upcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelConfig
from .errors import ConfigurationError

INIT_GAIN = 1.0
INITIAL_SMOOTHING_EPS = 0.1
INITIAL_DELTA = 1e-2

PLANES = ("xy", "xz", "yz")
# (axis, covering plane) pairs; each has one linear consensus offset head
AXIS_PLANES = (("x", "xy"), ("x", "xz"), ("y", "xy"), ("y", "yz"), ("z", "xz"), ("z", "yz"))


@dataclass(frozen=True)
class ParamSpec:
    shape: tuple[int, ...]
    init: str  # "uniform" | "const" | "neg_arange_states"
    fan_in: int = 1
    value: float = 0.0


def _uniform(shape, fan_in):
    return ParamSpec(tuple(shape), "uniform", fan_in=fan_in)


def _const(shape, value):
    return ParamSpec(tuple(shape), "const", value=value)


def declared_parameters(model: ModelConfig) -> dict[str, ParamSpec]:
    """Every parameter path the pipeline stages resolve, with its shape.

    This is the one place that states parameter shapes.
    """
    f = model.feature_width
    ns = model.state_width
    p = model.lidar_keypoints
    p_img = model.image_keypoints
    k = model.depth_chunks
    f_lat = model.consistency_width
    specs: dict[str, ParamSpec] = {}

    # camera lifting: fixed pixel offsets + keypoint weight logits
    specs["lift.cam.offsets"] = _uniform((p_img, 2), 1)
    specs["lift.cam.weight_logits"] = _uniform((p_img,), 1)
    # LDFA keypoint generators and the chunk-interaction / gate maps
    specs["lift.ldfa.offset.w"] = _uniform((f, 3 * p), f)
    specs["lift.ldfa.offset.b"] = _uniform((3 * p,), f)
    specs["lift.ldfa.weight.w"] = _uniform((f, p), f)
    specs["lift.ldfa.weight.b"] = _uniform((p,), f)
    specs["lift.ldfa.phi.w"] = _uniform(((k - 1) * f, f), (k - 1) * f)
    specs["lift.ldfa.phi.b"] = _const((f,), 0.0)
    specs["lift.ldfa.gate.w"] = _uniform((2 * f,), 2 * f)
    specs["lift.ldfa.gate.b"] = _const((), 0.0)

    specs["smoothing.eps"] = _const((), INITIAL_SMOOTHING_EPS)

    for name in ("wq_l", "wk_c", "wv_c", "wq_c", "wk_l", "wv_l"):
        specs[f"fusion.{name}"] = _uniform((f, f), f)
    specs["fusion.gate.w1"] = _uniform((2 * f, f), 2 * f)
    specs["fusion.gate.b1"] = _const((f,), 0.0)
    specs["fusion.gate.w2"] = _uniform((f,), f)
    specs["fusion.gate.b2"] = _const((), 0.0)
    specs["fusion.consist.proj_l"] = _uniform((f, f_lat), f)
    specs["fusion.consist.proj_c"] = _uniform((f, f_lat), f)
    specs["fusion.consist.w"] = _uniform((f,), 1)
    specs["fusion.consist.b"] = _const((f,), 0.0)
    specs["fusion.concat.w"] = _uniform((2 * f, f), 2 * f)

    delta_bias = math.log(math.expm1(INITIAL_DELTA))
    for b in range(model.head_blocks):
        for plane in PLANES:
            pre = f"head.block{b}.{plane}"
            specs[f"{pre}.embed.w1"] = _uniform((2, f), 2)
            specs[f"{pre}.embed.b1"] = _uniform((f,), 2)
            specs[f"{pre}.embed.w2"] = _uniform((f, f), f)
            specs[f"{pre}.embed.b2"] = _const((f,), 0.0)
            for layer in ("enc1", "enc2", "dec1", "dec2"):
                specs[f"{pre}.unet.{layer}.w"] = _uniform((f, f), f)
            specs[f"{pre}.ssm.a"] = ParamSpec((f, ns), "neg_arange_states")
            specs[f"{pre}.ssm.wb"] = _uniform((f, ns), f)
            specs[f"{pre}.ssm.wc"] = _uniform((f, ns), f)
            specs[f"{pre}.ssm.wdelta"] = _uniform((f, f), f)
            specs[f"{pre}.ssm.bdelta"] = _const((f,), delta_bias)
            specs[f"{pre}.ssm.dskip"] = _const((f,), 1.0)
        for axis, plane in AXIS_PLANES:
            specs[f"head.block{b}.psi.{axis}_{plane}.w"] = _uniform((f,), f)
            specs[f"head.block{b}.psi.{axis}_{plane}.b"] = _const((), 0.0)
    specs["head.decode.w"] = _uniform((f, model.decode_width), f)
    specs["head.decode.b"] = _const((model.decode_width,), 0.0)
    return specs


class ParameterBundle:
    """Ordered map from parameter paths to float32 tensors."""

    def __init__(self, entries: dict[str, np.ndarray]):
        self._entries: dict[str, np.ndarray] = {}
        for path, value in entries.items():
            arr = np.asarray(value, dtype=np.float32)
            if arr.ndim and not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            else:
                arr = arr.copy()
            arr.flags.writeable = False
            self._entries[str(path)] = arr

    def paths(self) -> list[str]:
        return list(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def raw(self, path: str) -> np.ndarray:
        """Stored float32 tensor (serialization precision)."""
        if path not in self._entries:
            raise KeyError(f"parameter path not in bundle: {path}")
        return self._entries[path]

    def get(self, path: str) -> np.ndarray:
        """Float64 copy for compute."""
        return self.raw(path).astype(np.float64)


def build_parameter_bundle(model: ModelConfig, seed: int) -> ParameterBundle:
    """Deterministic bundle for ``model`` from a 64-bit seed."""
    rng = np.random.default_rng(seed)
    declared = declared_parameters(model)
    entries: dict[str, np.ndarray] = {}
    for path in sorted(declared):
        entries[path] = _materialize(declared[path], rng, model)
    return ParameterBundle(entries)


def _materialize(spec: ParamSpec, rng: np.random.Generator, model: ModelConfig) -> np.ndarray:
    if spec.init == "uniform":
        half = INIT_GAIN / math.sqrt(max(spec.fan_in, 1))
        return rng.uniform(-half, half, size=spec.shape)
    if spec.init == "const":
        return np.full(spec.shape, spec.value)
    if spec.init == "neg_arange_states":
        return -np.tile(np.arange(1, model.state_width + 1, dtype=np.float64), (model.feature_width, 1))
    raise ConfigurationError(f"unknown parameter init kind: {spec.init}")


def validate_bundle(bundle: ParameterBundle, model: ModelConfig) -> None:
    """Check every declared path resolves with exactly the declared shape.

    The stage readers (``*Params.from_bundle``) restate no shapes: they rely
    on this check having passed.
    """
    for path, spec in declared_parameters(model).items():
        if path not in bundle:
            raise ConfigurationError(f"bundle missing parameter path: {path}")
        shape = bundle.raw(path).shape
        if shape != spec.shape:
            raise ConfigurationError(f"parameter {path} has shape {shape}, expected {spec.shape}")
