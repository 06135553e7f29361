"""Entropy-based feature smoothing.

Camera and LiDAR anchor features are read as logits over the latent channel
axis; bidirectional cross-entropy between their tempered softmaxes measures
disagreement, exponential decay turns the entropies into normalized
confidence weights, and a learnable scalar adds the per-anchor confidence
back onto every channel as a gentle residual.  The stage runs one pass;
the paper's random layer mask, a training-time regularizer, is not
reproduced, and the pipeline runs the stage only when smoothing is on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _softmax
from .errors import ConfigurationError


# softmax temperature and the floor that guards the log and the normalization
TEMPERATURE = 1.0
FLOOR = 1e-6


@dataclass(frozen=True)
class EntropyMaps:
    """Per-anchor disagreement entropies and the derived confidence weights."""

    h_cam_to_lidar: np.ndarray
    h_lidar_to_cam: np.ndarray
    w_cam: np.ndarray
    w_lidar: np.ndarray


def tempered_softmax(logits: np.ndarray, temperature: float) -> np.ndarray:
    """softmax(logits / temperature) along the last axis."""
    if temperature <= 0:
        raise ConfigurationError("temperature must be > 0", field="temperature")
    return _softmax(np.asarray(logits, dtype=np.float64) / temperature)


def bidirectional_cross_entropy(p_cam: np.ndarray, q_lidar: np.ndarray, floor: float):
    """Cross-entropies with each modality as the target; ``floor`` guards the log.

    Terms with zero target mass contribute zero (the usual 0 log 0 convention),
    which matters only when the floor itself is zero.
    """
    p_cam = np.asarray(p_cam, dtype=np.float64)
    q_lidar = np.asarray(q_lidar, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q_lidar + floor)
        log_p = np.log(p_cam + floor)
        h_cam_to_lidar = -np.sum(np.where(p_cam > 0, p_cam * log_q, 0.0), axis=-1)
        h_lidar_to_cam = -np.sum(np.where(q_lidar > 0, q_lidar * log_p, 0.0), axis=-1)
    return h_cam_to_lidar, h_lidar_to_cam


def confidence_weights(h_cam_to_lidar: np.ndarray, h_lidar_to_cam: np.ndarray, floor: float):
    """Exponential-decay confidences normalized with the floor in the denominator.

    The larger weight is the rounded quotient and the smaller is its exact
    complement against S/(S+floor); the subtraction is exact (Sterbenz), so
    W_cam + W_lidar equals the normalization ratio to the last bit and equal
    entropies give bitwise-equal weights.
    """
    omega_cam = np.exp(-np.asarray(h_lidar_to_cam, dtype=np.float64))
    omega_lidar = np.exp(-np.asarray(h_cam_to_lidar, dtype=np.float64))
    s = omega_cam + omega_lidar
    denom = s + floor
    total = s / denom
    larger = np.maximum(omega_cam, omega_lidar) / denom
    smaller = total - larger
    cam_is_larger = omega_cam >= omega_lidar
    return np.where(cam_is_larger, larger, smaller), np.where(cam_is_larger, smaller, larger)


def apply_smoothing(
    f_cam: np.ndarray,
    f_lidar: np.ndarray,
    weights: EntropyMaps,
    eps: float,
):
    """Residual update F + eps * W with the scalar weight broadcast per channel."""
    f_cam = np.asarray(f_cam, dtype=np.float64)
    f_lidar = np.asarray(f_lidar, dtype=np.float64)
    return (
        f_cam + eps * weights.w_cam[..., None],
        f_lidar + eps * weights.w_lidar[..., None],
    )


def entropy_maps(f_cam: np.ndarray, f_lidar: np.ndarray) -> EntropyMaps:
    p_cam = tempered_softmax(f_cam, TEMPERATURE)
    q_lidar = tempered_softmax(f_lidar, TEMPERATURE)
    h_cl, h_lc = bidirectional_cross_entropy(p_cam, q_lidar, FLOOR)
    w_cam, w_lidar = confidence_weights(h_cl, h_lc, FLOOR)
    return EntropyMaps(h_cam_to_lidar=h_cl, h_lidar_to_cam=h_lc, w_cam=w_cam, w_lidar=w_lidar)


def smooth_features(f_cam: np.ndarray, f_lidar: np.ndarray, eps: float):
    """One smoothing pass: the residual update under the features' entropy maps."""
    return apply_smoothing(f_cam, f_lidar, entropy_maps(f_cam, f_lidar), eps)
