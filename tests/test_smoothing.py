import numpy as np
import pytest

from gaussocc.errors import ConfigurationError
from gaussocc.smoothing import (
    EntropyMaps,
    apply_smoothing,
    bidirectional_cross_entropy,
    confidence_weights,
    entropy_maps,
    smooth_features,
    tempered_softmax,
)


class TestTemperedSoftmax:
    def test_uniform_logits(self):
        out = tempered_softmax(np.zeros(5), 1.0)
        np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-12)

    def test_hand_exp_normalize(self):
        out = tempered_softmax(np.array([np.log(2.0), 0.0]), 1.0)
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_large_temperature_flattens(self):
        out = tempered_softmax(np.array([3.0, -1.0, 0.5]), 1e9)
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-8)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits, temperature = rng.normal(scale=5, size=8), float(rng.uniform(0.1, 10))
            p = tempered_softmax(logits, temperature)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p > 0)
            # bitwise equal to the written-out scale, shift, exp, normalize order
            scaled = logits / temperature
            e = np.exp(scaled - np.max(scaled, axis=-1, keepdims=True))
            np.testing.assert_array_equal(p, e / np.sum(e, axis=-1, keepdims=True))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            logits = rng.normal(scale=3, size=6)
            shift = float(rng.normal(scale=10))
            a = tempered_softmax(logits, 2.0)
            b = tempered_softmax(logits + shift, 2.0)
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_non_positive_temperature(self):
        with pytest.raises(ConfigurationError):
            tempered_softmax(np.zeros(3), 0.0)


class TestBidirectionalCrossEntropy:
    def test_coin_flip_entropy(self):
        p = np.array([0.5, 0.5])
        h_cl, h_lc = bidirectional_cross_entropy(p, p, 0.0)
        assert h_cl == pytest.approx(np.log(2.0), abs=1e-12)
        assert h_lc == pytest.approx(np.log(2.0), abs=1e-12)

    def test_equal_distributions_symmetric(self):
        rng = np.random.default_rng(2)
        p = tempered_softmax(rng.normal(size=7), 1.0)
        h_cl, h_lc = bidirectional_cross_entropy(p, p, 1e-6)
        assert h_cl == h_lc

    def test_perfect_one_hot_agreement(self):
        p = np.array([0.0, 1.0, 0.0])
        h_cl, h_lc = bidirectional_cross_entropy(p, p, 0.0)
        assert h_cl == pytest.approx(0.0)
        assert h_lc == pytest.approx(0.0)

    def test_floor_keeps_finite(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        h_cl, h_lc = bidirectional_cross_entropy(p, q, 1e-6)
        assert np.isfinite(h_cl) and np.isfinite(h_lc)


class TestConfidenceWeights:
    def test_equal_entropies_equal_weights(self):
        w_cam, w_lidar = confidence_weights(np.log(2.0), np.log(2.0), 0.0)
        assert w_cam == pytest.approx(0.5, abs=1e-15)
        assert w_lidar == pytest.approx(0.5, abs=1e-15)

    def test_decay_limit(self):
        w_cam, _ = confidence_weights(np.float64(0.0), np.float64(500.0), 1e-6)
        assert w_cam < 1e-100

    def test_sum_identity_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            h_cl, h_lc = rng.uniform(0, 30, size=2)
            w_cam, w_lidar = confidence_weights(np.float64(h_cl), np.float64(h_lc), 1e-6)
            s = np.exp(-np.float64(h_lc)) + np.exp(-np.float64(h_cl))
            assert w_cam + w_lidar == s / (s + 1e-6)
            assert w_cam + w_lidar < 1.0


class TestApplySmoothing:
    def _maps(self, w_cam, w_lidar):
        return EntropyMaps(
            h_cam_to_lidar=np.zeros(()),
            h_lidar_to_cam=np.zeros(()),
            w_cam=np.asarray(w_cam),
            w_lidar=np.asarray(w_lidar),
        )

    def test_zero_eps_identity(self):
        rng = np.random.default_rng(4)
        f_cam, f_lidar = rng.normal(size=(2, 6))
        out_cam, out_lidar = apply_smoothing(f_cam, f_lidar, self._maps(0.3, 0.7), eps=0.0)
        np.testing.assert_array_equal(out_cam, f_cam)
        np.testing.assert_array_equal(out_lidar, f_lidar)

    def test_scalar_broadcast(self):
        out_cam, _ = apply_smoothing(np.zeros(4), np.zeros(4), self._maps(0.5, 0.0), eps=1.0)
        np.testing.assert_allclose(out_cam, np.full(4, 0.5))

    def test_zero_weight_identity(self):
        f = np.array([1.0, -2.0])
        out_cam, out_lidar = apply_smoothing(f, f, self._maps(0.0, 0.0), eps=0.3)
        np.testing.assert_array_equal(out_cam, f)
        np.testing.assert_array_equal(out_lidar, f)

    def test_preserves_width(self):
        out_cam, out_lidar = apply_smoothing(np.zeros((5, 9)), np.zeros((5, 9)), self._maps(np.ones(5), np.ones(5)), 0.1)
        assert out_cam.shape == (5, 9) and out_lidar.shape == (5, 9)


class TestSmoothFeaturesDriver:
    def test_one_pass_changes_features(self):
        rng = np.random.default_rng(6)
        f_cam, f_lidar = rng.normal(size=(2, 4, 6))
        out_cam, out_lidar = smooth_features(f_cam, f_lidar, eps=0.5)
        maps = entropy_maps(f_cam, f_lidar)
        assert np.all(maps.w_cam > 0) and np.all(maps.w_cam < 1)
        expected = apply_smoothing(f_cam, f_lidar, maps, 0.5)
        assert out_cam.tobytes() == expected[0].tobytes() and out_lidar.tobytes() == expected[1].tobytes()
        assert not np.array_equal(out_cam, f_cam)

    def test_weight_symmetry_bitwise(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(10, 8))
        maps = entropy_maps(f, f)
        np.testing.assert_array_equal(maps.w_cam, maps.w_lidar)
