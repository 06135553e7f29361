import math

import numpy as np
import pytest

from gaussocc.errors import ConfigurationError
from gaussocc.fusion import FusionParams
from gaussocc.head import HeadParams
from gaussocc.lifting import CameraLiftParams, KeypointParams, LdfaParams
from gaussocc.params import (
    INITIAL_DELTA,
    ParameterBundle,
    build_parameter_bundle,
    declared_parameters,
    validate_bundle,
)


def test_bundle_reproducible_from_seed(small_model):
    a = build_parameter_bundle(small_model, seed=9)
    b = build_parameter_bundle(small_model, seed=9)
    assert a.paths() == b.paths()
    for path in a.paths():
        np.testing.assert_array_equal(a.raw(path), b.raw(path))


def test_bundle_differs_across_seeds(small_model):
    a = build_parameter_bundle(small_model, seed=9)
    b = build_parameter_bundle(small_model, seed=10)
    assert not np.array_equal(a.raw("fusion.wq_l"), b.raw("fusion.wq_l"))


def test_every_declared_path_resolves(small_model, small_bundle):
    validate_bundle(small_bundle, small_model)
    declared = declared_parameters(small_model)
    assert set(small_bundle.paths()) == set(declared)


def test_missing_path_rejected(small_model, small_bundle):
    entries = {p: small_bundle.raw(p) for p in small_bundle.paths() if p != "fusion.wq_l"}
    with pytest.raises(ConfigurationError):
        validate_bundle(ParameterBundle(entries), small_model)


def test_shape_mismatch_rejected(small_model, small_bundle):
    entries = {p: small_bundle.raw(p) for p in small_bundle.paths()}
    entries["fusion.wq_l"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ConfigurationError):
        validate_bundle(ParameterBundle(entries), small_model)


def test_readers_read_every_declared_path_once(small_model, small_bundle, small_grid):
    """The stage readers and the schema name the same paths: a misspelled or
    unread path in either shows here, since the readers state no shapes."""
    reads = []

    class RecordingBundle(ParameterBundle):
        def raw(self, path):
            reads.append(path)
            return super().raw(path)

    bundle = RecordingBundle({p: small_bundle.raw(p) for p in small_bundle.paths()})
    CameraLiftParams.from_bundle(bundle)
    KeypointParams.from_bundle(bundle)
    LdfaParams.from_bundle(bundle)
    bundle.get("smoothing.eps")  # the pipeline reads the smoothing temperature itself
    FusionParams.from_bundle(bundle)
    HeadParams.from_bundle(bundle, small_model, small_grid)
    assert set(reads) == set(declared_parameters(small_model))
    assert len(reads) == len(set(reads))


def test_special_initializations(small_model, small_bundle):
    assert float(small_bundle.get("smoothing.eps")) == pytest.approx(0.1)
    a = small_bundle.get("head.block0.xy.ssm.a")
    assert np.all(a < 0)
    np.testing.assert_array_equal(a[0], -np.arange(1, small_model.state_width + 1))
    np.testing.assert_array_equal(
        small_bundle.get("head.block0.xy.ssm.dskip"), np.ones(small_model.feature_width)
    )
    b_delta = float(small_bundle.get("head.block0.xy.ssm.bdelta")[0])
    assert math.log1p(math.exp(b_delta)) == pytest.approx(INITIAL_DELTA, rel=1e-5)
    assert float(small_bundle.get("fusion.gate.b2")) == 0.0


def test_decode_width_tracks_classes(small_model):
    assert declared_parameters(small_model)["head.decode.w"].shape == (16, 28)


def test_get_upcasts_to_float64(small_bundle):
    assert small_bundle.raw("fusion.wq_l").dtype == np.float32
    assert small_bundle.get("fusion.wq_l").dtype == np.float64
