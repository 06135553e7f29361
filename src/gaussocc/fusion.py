"""Adaptive camera-LiDAR fusion.

Dual-stream point-wise cross-attention lets each modality borrow value
content from the other through a per-anchor scalar score gate (dot-product
attention collapsed to O(N)), a learned soft gate blends the two refined
streams convexly, and a consistency gate derived from the cosine similarity
of the raw modality projections attenuates channels where the sensors
disagree.  Addition and concatenation baselines are provided for the fusion
mode sweep.

Every product is a ``core._product`` and every other operation is per
anchor, so the pipeline's front end fuses one anchor block at a time, inside
forked anchor-range workers (``workers.run``), with the bits of one
call over every anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _product, _sigmoid
from .errors import ConfigurationError
from .params import ParameterBundle

FUSION_MODES = ("addition", "concatenation", "adaptive")


@dataclass(frozen=True)
class FusionParams:
    wq_l: np.ndarray
    wk_c: np.ndarray
    wv_c: np.ndarray
    wq_c: np.ndarray
    wk_l: np.ndarray
    wv_l: np.ndarray
    gate_w1: np.ndarray
    gate_b1: np.ndarray
    gate_w2: np.ndarray
    gate_b2: float
    consist_proj_l: np.ndarray
    consist_proj_c: np.ndarray
    consist_w: np.ndarray
    consist_b: np.ndarray
    concat_w: np.ndarray

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle) -> "FusionParams":
        """Read from a bundle that ``params.validate_bundle`` has accepted."""
        return cls(
            wq_l=bundle.get("fusion.wq_l"),
            wk_c=bundle.get("fusion.wk_c"),
            wv_c=bundle.get("fusion.wv_c"),
            wq_c=bundle.get("fusion.wq_c"),
            wk_l=bundle.get("fusion.wk_l"),
            wv_l=bundle.get("fusion.wv_l"),
            gate_w1=bundle.get("fusion.gate.w1"),
            gate_b1=bundle.get("fusion.gate.b1"),
            gate_w2=bundle.get("fusion.gate.w2"),
            gate_b2=float(bundle.get("fusion.gate.b2")),
            consist_proj_l=bundle.get("fusion.consist.proj_l"),
            consist_proj_c=bundle.get("fusion.consist.proj_c"),
            consist_w=bundle.get("fusion.consist.w"),
            consist_b=bundle.get("fusion.consist.b"),
            concat_w=bundle.get("fusion.concat.w"),
        )

    @property
    def feature_width(self) -> int:
        return self.wq_l.shape[0]


@dataclass(frozen=True)
class FusedFeature:
    """All intermediate products of the adaptive fusion, per anchor."""

    h_l: np.ndarray
    h_c: np.ndarray
    m_gate: np.ndarray
    h_fused: np.ndarray
    similarity: np.ndarray
    w_consist: np.ndarray
    f_final: np.ndarray


def cross_attend_pointwise(f_l: np.ndarray, f_c: np.ndarray, params: FusionParams):
    """Residual cross-attention with a per-anchor scalar score through a sigmoid."""
    f_l = np.asarray(f_l, dtype=np.float64)
    f_c = np.asarray(f_c, dtype=np.float64)
    d = float(params.feature_width)
    score_l = np.sum(_product(f_l, params.wq_l) * _product(f_c, params.wk_c), axis=-1) / np.sqrt(d)
    h_l = f_l + _sigmoid(score_l)[..., None] * _product(f_c, params.wv_c)
    score_c = np.sum(_product(f_c, params.wq_c) * _product(f_l, params.wk_l), axis=-1) / np.sqrt(d)
    h_c = f_c + _sigmoid(score_c)[..., None] * _product(f_l, params.wv_l)
    return h_l, h_c


def soft_gate(h_l: np.ndarray, h_c: np.ndarray, params: FusionParams):
    """Scalar fusion mask from an MLP over the concatenated streams."""
    h_l = np.asarray(h_l, dtype=np.float64)
    h_c = np.asarray(h_c, dtype=np.float64)
    hidden = np.maximum(_product(np.concatenate([h_l, h_c], axis=-1), params.gate_w1) + params.gate_b1, 0.0)
    m_gate = _sigmoid(_product(hidden, params.gate_w2) + params.gate_b2)
    h_fused = m_gate[..., None] * h_l + (1.0 - m_gate)[..., None] * h_c
    return m_gate, h_fused


def consistency_reweight(
    f_l: np.ndarray, f_c: np.ndarray, h_fused: np.ndarray, params: FusionParams
):
    """Channel-wise gate from the cosine similarity of the raw modality projections.

    A zero-vector projection yields similarity 0 (maximal distrust, no NaN).
    """
    f_l = np.asarray(f_l, dtype=np.float64)
    f_c = np.asarray(f_c, dtype=np.float64)
    z_l = _product(f_l, params.consist_proj_l)
    z_c = _product(f_c, params.consist_proj_c)
    norm_l = np.linalg.norm(z_l, axis=-1)
    norm_c = np.linalg.norm(z_c, axis=-1)
    denom = norm_l * norm_c
    similarity = np.where(denom > 0, np.sum(z_l * z_c, axis=-1) / np.where(denom > 0, denom, 1.0), 0.0)
    w_consist = _sigmoid(similarity[..., None] * params.consist_w + params.consist_b)
    f_final = np.asarray(h_fused, dtype=np.float64) * w_consist
    return similarity, w_consist, f_final


def fuse_by_addition(f_l: np.ndarray, f_c: np.ndarray) -> np.ndarray:
    return np.asarray(f_l, dtype=np.float64) + np.asarray(f_c, dtype=np.float64)


def fuse_by_concat(f_l: np.ndarray, f_c: np.ndarray, params: FusionParams) -> np.ndarray:
    both = np.concatenate([np.asarray(f_l, dtype=np.float64), np.asarray(f_c, dtype=np.float64)], axis=-1)
    return _product(both, params.concat_w)


def adaptive_fuse(f_l: np.ndarray, f_c: np.ndarray, params: FusionParams) -> FusedFeature:
    h_l, h_c = cross_attend_pointwise(f_l, f_c, params)
    m_gate, h_fused = soft_gate(h_l, h_c, params)
    similarity, w_consist, f_final = consistency_reweight(f_l, f_c, h_fused, params)
    return FusedFeature(
        h_l=h_l,
        h_c=h_c,
        m_gate=m_gate,
        h_fused=h_fused,
        similarity=similarity,
        w_consist=w_consist,
        f_final=f_final,
    )


def fuse(f_l: np.ndarray, f_c: np.ndarray, params: FusionParams, mode: str) -> np.ndarray:
    """Fusion entry point selected by the configured mode."""
    if mode == "addition":
        return fuse_by_addition(f_l, f_c)
    if mode == "concatenation":
        return fuse_by_concat(f_l, f_c, params)
    if mode == "adaptive":
        return adaptive_fuse(f_l, f_c, params).f_final
    raise ConfigurationError(f"unknown fusion mode {mode!r}", field="fusion_mode")
