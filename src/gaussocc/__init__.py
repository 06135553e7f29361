"""Gaussian-primitive camera-LiDAR semantic occupancy pipeline."""

from .core import (
    ClassTaxonomy,
    GaussianPrimitive,
    GridSpec,
    ModelConfig,
    SemanticOccupancyGrid,
    default_taxonomy,
    init_anchors,
    make_covariance,
)
from .params import ParameterBundle, build_parameter_bundle, validate_bundle
from .presets import RunConfig, resolve_config
from .pipeline import run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ClassTaxonomy",
    "GaussianPrimitive",
    "GridSpec",
    "ModelConfig",
    "ParameterBundle",
    "RunConfig",
    "SemanticOccupancyGrid",
    "build_parameter_bundle",
    "default_taxonomy",
    "init_anchors",
    "make_covariance",
    "resolve_config",
    "run_pipeline",
    "validate_bundle",
    "__version__",
]
