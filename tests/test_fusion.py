import numpy as np
import pytest

from gaussocc.errors import ConfigurationError
from gaussocc.fusion import (
    FusionParams,
    adaptive_fuse,
    consistency_reweight,
    cross_attend_pointwise,
    fuse,
    fuse_by_addition,
    fuse_by_concat,
    soft_gate,
)


def manual_params(
    f=4,
    f_lat=2,
    wq_l=None,
    wk_c=None,
    wv_c=None,
    wq_c=None,
    wk_l=None,
    wv_l=None,
    gate_w2=None,
    gate_b2=0.0,
    proj_l=None,
    proj_c=None,
    consist_w=None,
    consist_b=None,
):
    zero = np.zeros((f, f))
    return FusionParams(
        wq_l=zero if wq_l is None else wq_l,
        wk_c=zero if wk_c is None else wk_c,
        wv_c=zero if wv_c is None else wv_c,
        wq_c=zero if wq_c is None else wq_c,
        wk_l=zero if wk_l is None else wk_l,
        wv_l=zero if wv_l is None else wv_l,
        gate_w1=np.zeros((2 * f, f)),
        gate_b1=np.zeros(f),
        gate_w2=np.zeros(f) if gate_w2 is None else gate_w2,
        gate_b2=gate_b2,
        consist_proj_l=np.zeros((f, f_lat)) if proj_l is None else proj_l,
        consist_proj_c=np.zeros((f, f_lat)) if proj_c is None else proj_c,
        consist_w=np.zeros(f) if consist_w is None else consist_w,
        consist_b=np.zeros(f) if consist_b is None else consist_b,
        concat_w=np.zeros((2 * f, f)),
    )


def random_params(rng, f, f_lat):
    u = lambda *shape: rng.uniform(-1, 1, size=shape) / np.sqrt(shape[0] if shape else 1)
    return FusionParams(
        wq_l=u(f, f), wk_c=u(f, f), wv_c=u(f, f), wq_c=u(f, f), wk_l=u(f, f), wv_l=u(f, f),
        gate_w1=u(2 * f, f), gate_b1=np.zeros(f), gate_w2=u(f), gate_b2=float(rng.normal()),
        consist_proj_l=u(f, f_lat), consist_proj_c=u(f, f_lat),
        consist_w=rng.normal(size=f), consist_b=rng.normal(size=f) * 0.1,
        concat_w=u(2 * f, f),
    )


class TestCrossAttend:
    def test_zero_value_projection_is_identity(self):
        rng = np.random.default_rng(0)
        f_l, f_c = rng.normal(size=(2, 5, 4))
        params = manual_params(wq_l=rng.normal(size=(4, 4)), wk_c=rng.normal(size=(4, 4)))
        h_l, h_c = cross_attend_pointwise(f_l, f_c, params)
        np.testing.assert_array_equal(h_l, f_l)
        np.testing.assert_array_equal(h_c, f_c)

    def test_zero_score_adds_half_value(self):
        f_l = np.array([1.0, 2.0, 3.0, 4.0])
        f_c = np.array([2.0, 2.0, 2.0, 2.0])
        params = manual_params(wv_c=np.eye(4))
        h_l, _ = cross_attend_pointwise(f_l, f_c, params)
        np.testing.assert_allclose(h_l, f_l + 0.5 * f_c)

    def test_saturated_negative_score_closes_gate(self):
        f_l = np.ones(4)
        f_c = np.ones(4)
        params = manual_params(
            wq_l=np.eye(4) * 100.0, wk_c=np.eye(4) * -100.0, wv_c=np.eye(4)
        )
        h_l, _ = cross_attend_pointwise(f_l, f_c, params)
        np.testing.assert_allclose(h_l, f_l, atol=1e-12)


class TestSoftGate:
    def test_open_gate_selects_lidar_stream(self):
        h_l = np.array([3.0, -1.0])
        h_c = np.array([0.0, 5.0])
        params = manual_params(f=2, gate_b2=80.0)
        m, fused = soft_gate(h_l, h_c, params)
        assert m == pytest.approx(1.0)
        np.testing.assert_allclose(fused, h_l)

    def test_closed_gate_selects_camera_stream(self):
        h_l = np.array([3.0, -1.0])
        h_c = np.array([0.0, 5.0])
        params = manual_params(f=2, gate_b2=-80.0)
        _, fused = soft_gate(h_l, h_c, params)
        np.testing.assert_allclose(fused, h_c, atol=1e-30)

    def test_half_gate_blend(self):
        h_l = np.full(3, 2.0)
        h_c = np.zeros(3)
        params = manual_params(f=3)
        m, fused = soft_gate(h_l, h_c, params)
        assert m == pytest.approx(0.5)
        np.testing.assert_allclose(fused, np.ones(3))


class TestConsistencyReweight:
    def test_identical_projections(self):
        f = np.array([1.0, 2.0])
        params = manual_params(f=2, f_lat=2, proj_l=np.eye(2), proj_c=np.eye(2))
        sim, _, _ = consistency_reweight(f, f, np.zeros(2), params)
        assert sim == pytest.approx(1.0)

    def test_orthogonal_projections(self):
        params = manual_params(f=2, f_lat=2, proj_l=np.eye(2), proj_c=np.eye(2))
        sim, _, _ = consistency_reweight(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2), params)
        assert sim == pytest.approx(0.0)

    def test_hand_cosine(self):
        params = manual_params(f=2, f_lat=2, proj_l=np.eye(2), proj_c=np.eye(2))
        sim, _, _ = consistency_reweight(np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.zeros(2), params)
        assert sim == pytest.approx(1.0 / np.sqrt(2.0))

    def test_zero_projection_similarity_zero(self):
        params = manual_params(f=2, f_lat=2, proj_l=np.zeros((2, 2)), proj_c=np.eye(2))
        sim, w, out = consistency_reweight(np.ones(2), np.ones(2), np.ones(2), params)
        assert sim == 0.0
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(out))

    def test_scale_invariance_of_similarity(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 6, 3)
        f_l, f_c = rng.normal(size=(2, 6))
        sim, _, _ = consistency_reweight(f_l, f_c, np.zeros(6), params)
        sim_scaled, _, _ = consistency_reweight(3.7 * f_l, 0.21 * f_c, np.zeros(6), params)
        assert sim_scaled == pytest.approx(sim, abs=1e-12)


class TestFusionLaws:
    def test_fused_within_hull_and_attenuation(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, 8, 4)
        for _ in range(200):
            f_l, f_c = rng.normal(size=(2, 8))
            out = adaptive_fuse(f_l, f_c, params)
            lo = np.minimum(out.h_l, out.h_c)
            hi = np.maximum(out.h_l, out.h_c)
            pad = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
            assert np.all(out.h_fused >= lo - pad) and np.all(out.h_fused <= hi + pad)
            assert np.all(np.abs(out.f_final) <= np.abs(out.h_fused))
            assert np.all((out.w_consist > 0) & (out.w_consist < 1))
            assert 0.0 < out.m_gate < 1.0
            assert -1.0 <= out.similarity <= 1.0


class TestBaselines:
    def test_addition(self):
        np.testing.assert_allclose(fuse_by_addition(np.array([1.0, 2.0]), np.array([3.0, -1.0])), [4.0, 1.0])

    def test_concat_linear_map(self):
        params = manual_params(f=2)
        params = FusionParams(**{**params.__dict__, "concat_w": np.vstack([np.eye(2), np.eye(2)])})
        np.testing.assert_allclose(
            fuse_by_concat(np.array([1.0, 2.0]), np.array([3.0, -1.0]), params), [4.0, 1.0]
        )

    def test_mode_dispatch(self, small_bundle, small_model):
        params = FusionParams.from_bundle(small_bundle)
        rng = np.random.default_rng(3)
        f_l, f_c = rng.normal(size=(2, 4, 16))
        np.testing.assert_array_equal(fuse(f_l, f_c, params, "addition"), fuse_by_addition(f_l, f_c))
        assert fuse(f_l, f_c, params, "concatenation").shape == (4, 16)
        assert fuse(f_l, f_c, params, "adaptive").shape == (4, 16)
        with pytest.raises(ConfigurationError):
            fuse(f_l, f_c, params, "maximum")
