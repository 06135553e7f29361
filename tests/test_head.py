import warnings

import numpy as np
import pytest

from gaussocc.core import GaussianPrimitive, GridSpec, init_anchors, stack_primitives
from gaussocc.errors import (
    ConfigurationError,
    DegenerateCovarianceError,
    SequenceTooShortError,
)
from gaussocc.harness import oracle_sequential_scan
from gaussocc.head import (
    BlockParams,
    ConsensusParams,
    DecodeParams,
    HeadParams,
    PlaneEmbedParams,
    SsmParams,
    UnetParams,
    apply_decoded,
    consensus_update,
    decode_attributes,
    mamba_unet_refine,
    raster_serialize,
    refine_features,
    run_head,
    selective_scan,
    splat_arrays,
    zoh_discretize,
)
from gaussocc.params import AXIS_PLANES, PLANES


def manual_ssm(f=1, n=1, a=-1.0, w_b=0.0, w_c=0.0, w_delta=0.0, b_delta=-10.0, d_skip=0.0):
    return SsmParams(
        a=np.full((f, n), a),
        w_b=np.full((f, n), w_b),
        w_c=np.full((f, n), w_c),
        w_delta=np.full((f, f), w_delta),
        b_delta=np.full(f, b_delta),
        d_skip=np.full(f, d_skip),
    )


def random_ssm(rng, f, n):
    return SsmParams(
        a=-rng.uniform(0.5, float(n), size=(f, n)),
        w_b=rng.normal(size=(f, n)) / np.sqrt(f),
        w_c=rng.normal(size=(f, n)) / np.sqrt(f),
        w_delta=rng.normal(size=(f, f)) / np.sqrt(f),
        b_delta=np.full(f, -4.0),
        d_skip=rng.normal(size=f),
    )


def zeroed_unet(f):
    """Random encoders, zero decoders and a silenced scan: the identity map."""
    rng = np.random.default_rng(5)
    enc = lambda: rng.normal(size=(f, f)) / np.sqrt(f)
    return UnetParams(
        enc1=enc(), enc2=enc(), dec1=np.zeros((f, f)), dec2=np.zeros((f, f)),
        ssm=manual_ssm(f=f, n=2, w_b=0.0, w_c=0.0, d_skip=0.0),
    )


def zero_consensus(f, biases=None):
    return ConsensusParams(
        weights={key: np.zeros(f) for key in AXIS_PLANES},
        biases={key: 0.0 for key in AXIS_PLANES} | (biases or {}),
    )


def in_anchor_order(h_xy, h_xz, h_yz):
    """Plane rows already in anchor order: identity inverse permutations."""
    identity = np.arange(len(h_xy))
    return {"xy": (h_xy, identity), "xz": (h_xz, identity), "yz": (h_yz, identity)}


class TestRasterSerialize:
    def test_three_point_hand_example(self):
        coords = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        order = raster_serialize(coords, omega=10.0)
        np.testing.assert_array_equal(order.indices, [2, 1, 0])

    def test_single_point_identity(self):
        order = raster_serialize(np.array([[3.0, 4.0]]), omega=10.0)
        np.testing.assert_array_equal(order.indices, [0])

    def test_duplicate_coordinates_stable(self):
        coords = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        order = raster_serialize(coords, omega=10.0)
        np.testing.assert_array_equal(order.indices, [2, 0, 1])

    def test_key_scale_too_small(self):
        coords = np.array([[0.0, 0.0], [20.0, 1.0]])
        with pytest.raises(ConfigurationError):
            raster_serialize(coords, omega=10.0)

    def test_inverse_is_identity_on_features(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(-5, 5, size=(40, 2))
        features = rng.normal(size=(40, 7))
        order = raster_serialize(coords, omega=100.0)
        np.testing.assert_array_equal(features[order.indices][order.inverse], features)


class TestZohDiscretize:
    def test_hand_values(self):
        abar, bbar = zoh_discretize(-1.0, 1.0, np.log(2.0))
        assert abar == pytest.approx(0.5, abs=1e-12)
        assert bbar == pytest.approx(0.5, abs=1e-12)

    def test_zero_step_limit(self):
        abar, bbar = zoh_discretize(-2.0, 3.0, 1e-12)
        assert abar == pytest.approx(1.0, abs=1e-9)
        assert bbar == pytest.approx(0.0, abs=1e-9)

    def test_stability_band(self):
        rng = np.random.default_rng(1)
        a = -rng.uniform(0.01, 50.0, size=1000)
        delta = rng.uniform(1e-6, 10.0, size=1000)
        abar, _ = zoh_discretize(a, 1.0, delta)
        assert np.all(abar > 0) and np.all(abar < 1)

    def test_series_matches_exact_form(self):
        # straddles the 1e-4 branch cutoff from both sides
        z = -np.logspace(-8, -3, 200)
        a = np.full_like(z, -1.0)
        delta = -z  # so delta * a == z
        _, bbar = zoh_discretize(a, 1.0, delta)
        exact = (np.expm1(z) / z) * delta
        np.testing.assert_allclose(bbar, exact, rtol=1e-10)

    def test_edge_mix_matches_two_branch_formula(self):
        # z = 0 (delta = 0), both sides of the 1e-4 cutoff, and |z| up to 50
        mags = np.concatenate([[0.0, 0.99e-4, 1.01e-4], np.logspace(-9, np.log10(50.0), 301)])
        a = np.concatenate([-np.ones_like(mags), np.ones_like(mags)])
        delta = np.concatenate([mags, mags])
        b = np.linspace(-2.0, 3.0, a.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            abar, bbar = zoh_discretize(a, b, delta)
        z = delta * a
        small = np.abs(z) < 1e-4
        safe = np.where(small, 1.0, z)
        phi = np.where(small, 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0, np.expm1(safe) / safe)
        np.testing.assert_array_equal(abar, np.exp(z))
        np.testing.assert_array_equal(bbar, phi * delta * b)
        assert np.all(np.isfinite(abar)) and np.all(np.isfinite(bbar))


class TestSelectiveScan:
    def test_zero_input_coupling_reduces_to_skip(self):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(12, 3))
        params = manual_ssm(f=3, n=2, w_b=0.0, w_c=1.0, d_skip=0.7)
        out = selective_scan(tokens, params)
        np.testing.assert_allclose(out, 0.7 * tokens, atol=1e-12)

    def test_geometric_recurrence_hand_values(self):
        # constant tokens of 1.0; delta fixed by bias so exp(delta * a) = 0.5,
        # w_b chosen so bbar * x = 1; readout c = 1, no skip
        delta = np.log(2.0)
        b_delta = np.log(np.expm1(delta))
        w_b = 1.0 / ((0.5 - 1.0) / -1.0)  # bbar = ((abar-1)/a) * b = 1
        params = manual_ssm(f=1, n=1, a=-1.0, w_b=w_b, w_c=1.0, w_delta=0.0, b_delta=b_delta)
        tokens = np.ones((4, 1))
        out = selective_scan(tokens, params)
        np.testing.assert_allclose(out[:, 0], [1.0, 1.5, 1.75, 1.875], atol=1e-12)

    def test_single_token_formula(self):
        rng = np.random.default_rng(3)
        params = random_ssm(rng, 4, 3)
        x = rng.normal(size=(1, 4))
        out = selective_scan(x, params)
        delta = np.log1p(np.exp(x[0] @ params.w_delta + params.b_delta))
        b_t = x[0] @ params.w_b
        c_t = x[0] @ params.w_c
        abar, bbar = zoh_discretize(params.a, b_t[None, :], delta[:, None])
        h = bbar * x[0][:, None]
        expected = h @ c_t + params.d_skip * x[0]
        np.testing.assert_allclose(out[0], expected, rtol=1e-12)

    def test_state_carries_across_time_blocks(self):
        # lengths that end exactly on, one past, and one past two 1024-token blocks
        rng = np.random.default_rng(9)
        params = random_ssm(rng, 16, 4)
        for t in (1024, 1025, 2049):
            tokens = rng.normal(size=(t, 16))
            np.testing.assert_allclose(
                selective_scan(tokens, params), oracle_sequential_scan(tokens, params), rtol=1e-9, atol=1e-12
            )

    def test_abar_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        params = random_ssm(rng, 6, 4)
        tokens = rng.normal(size=(64, 6))
        delta = np.log1p(np.exp(tokens @ params.w_delta + params.b_delta))
        abar = np.exp(delta[:, :, None] * params.a[None])
        assert np.all(abar > 0) and np.all(abar < 1)

    def test_negative_a_required(self):
        with pytest.raises(ConfigurationError):
            manual_ssm(a=0.5)


class TestMambaUnet:
    def test_identity_at_zero_initialization(self):
        rng = np.random.default_rng(6)
        tokens = rng.normal(size=(11, 5))
        out = mamba_unet_refine(tokens, zeroed_unet(5))
        np.testing.assert_array_equal(out, tokens)

    def test_constant_sequence_stays_constant(self):
        rng = np.random.default_rng(7)
        f = 4
        # silence the state input so the scan is pointwise; pooling, linear
        # maps and skips then all preserve constant sequences
        params = UnetParams(
            enc1=rng.normal(size=(f, f)), enc2=rng.normal(size=(f, f)),
            dec1=rng.normal(size=(f, f)), dec2=rng.normal(size=(f, f)),
            ssm=manual_ssm(f=f, n=2, w_b=0.0, w_c=1.0, d_skip=0.3),
        )
        for t in (4, 5, 9, 16, 21):
            tokens = np.tile(rng.normal(size=(1, f)), (t, 1))
            out = mamba_unet_refine(tokens, params)
            np.testing.assert_allclose(out, np.tile(out[:1], (t, 1)), atol=1e-9)

    def test_length_preserved_for_all_small_t(self):
        rng = np.random.default_rng(8)
        f = 3
        params = UnetParams(
            enc1=rng.normal(size=(f, f)), enc2=rng.normal(size=(f, f)),
            dec1=rng.normal(size=(f, f)), dec2=rng.normal(size=(f, f)),
            ssm=random_ssm(rng, f, 2),
        )
        for t in range(4, 65):
            out = mamba_unet_refine(rng.normal(size=(t, f)), params)
            assert out.shape == (t, f)

    def test_too_short_sequence(self):
        with pytest.raises(SequenceTooShortError):
            mamba_unet_refine(np.zeros((3, 4)), zeroed_unet(4))


class TestConsensusUpdate:
    def test_zero_heads_leave_centroids(self):
        rng = np.random.default_rng(9)
        centroids = rng.normal(size=(6, 3))
        h = rng.normal(size=(6, 4))
        out = consensus_update(centroids, in_anchor_order(h, h, h), zero_consensus(4))
        np.testing.assert_array_equal(out, centroids)

    def test_agreeing_predictions_average(self):
        centroids = np.zeros((2, 3))
        h = np.zeros((2, 4))
        params = zero_consensus(4, {("x", "xy"): 2.0, ("x", "xz"): 2.0})
        out = consensus_update(centroids, in_anchor_order(h, h, h), params)
        np.testing.assert_allclose(out[:, 0], [2.0, 2.0])
        np.testing.assert_allclose(out[:, 1:], np.zeros((2, 2)))

    def test_antisymmetric_cancellation(self):
        centroids = np.ones((3, 3))
        h = np.zeros((3, 4))
        params = zero_consensus(4, {("x", "xy"): 1.0, ("x", "xz"): -1.0})
        out = consensus_update(centroids, in_anchor_order(h, h, h), params)
        np.testing.assert_array_equal(out, centroids)

    def test_commutes_with_translation(self):
        rng = np.random.default_rng(10)
        weights = {key: rng.normal(size=5) for key in AXIS_PLANES}
        biases = {key: float(rng.normal()) for key in AXIS_PLANES}
        params = ConsensusParams(weights=weights, biases=biases)
        centroids = rng.normal(size=(7, 3))
        planes = in_anchor_order(*rng.normal(size=(3, 7, 5)))
        t = np.array([10.0, -3.0, 0.5])
        base = consensus_update(centroids, planes, params)
        shifted = consensus_update(centroids + t, planes, params)
        np.testing.assert_allclose(shifted, base + t, rtol=1e-12, atol=1e-12)

    def test_heads_run_in_raster_order(self):
        # 23 rows, not a multiple of 4, so BLAS handles some rows in its tail
        # loop and a row's result can depend on its position
        rng = np.random.default_rng(15)
        n, f = 23, 16
        weights = {key: rng.normal(size=f) for key in AXIS_PLANES}
        biases = {key: float(rng.normal()) for key in AXIS_PLANES}
        params = ConsensusParams(weights=weights, biases=biases)
        centroids = rng.normal(size=(n, 3))
        planes = {
            plane: (rng.normal(size=(n, f)), raster_serialize(rng.uniform(-4, 4, size=(n, 2)), 64.0).inverse)
            for plane in PLANES
        }
        out = consensus_update(centroids, planes, params)

        def combine(head):
            return centroids + 0.5 * np.stack(
                [
                    head("x", "xy") + head("x", "xz"),
                    head("y", "xy") + head("y", "yz"),
                    head("z", "xz") + head("z", "yz"),
                ],
                axis=-1,
            )

        def raster_head(axis, plane):
            rows, inverse = planes[plane]
            return (rows @ weights[(axis, plane)] + biases[(axis, plane)])[inverse]

        def anchor_head(axis, plane):
            rows, inverse = planes[plane]
            return rows[inverse] @ weights[(axis, plane)] + biases[(axis, plane)]

        np.testing.assert_array_equal(out, combine(raster_head))
        np.testing.assert_allclose(out, combine(anchor_head), rtol=0, atol=1e-12)


class TestRefineFeatures:
    def test_plane_pairs_reach_their_embeds(self):
        # one block with identity U-Nets and zero offset heads, whose linear
        # embeds route a plane's two coordinates into channels 0 and 1 and
        # into a pair of channels of that plane's own, so the output holds the
        # average of the three pairs and each plane's pair on its own
        f = 2 + 2 * len(PLANES)
        embed = {}
        for k, plane in enumerate(PLANES):
            w1 = np.zeros((2, f))
            w1[0, [0, 2 + 2 * k]] = 1.0
            w1[1, [1, 3 + 2 * k]] = 1.0
            embed[plane] = PlaneEmbedParams(
                w1=w1, b1=np.zeros(f), w2=np.eye(f), b2=np.zeros(f), center=np.zeros(2), half_extent=np.ones(2),
            )
        block = BlockParams(
            embed=embed, unet={plane: zeroed_unet(f) for plane in PLANES}, consensus=zero_consensus(f)
        )
        params = HeadParams(blocks=(block,), decode=DecodeParams(w=np.zeros((f, 28)), b=np.zeros(28)), omega=100.0)
        rng = np.random.default_rng(16)
        centroids = rng.uniform(0.5, 5.0, size=(9, 3))  # positive, so the ReLU passes them
        features = rng.normal(size=(9, f))
        out_c, out_f = refine_features(centroids, features, params)
        x, y, z = centroids.T
        expected = features + np.stack([x + x + y, y + z + z, x, y, x, z, y, z], axis=-1) / 3.0
        np.testing.assert_array_equal(out_c, centroids)
        np.testing.assert_allclose(out_f, expected, rtol=0, atol=1e-12)


class TestDecodeAttributes:
    def test_zero_decode_leaves_geometry(self):
        rng = np.random.default_rng(11)
        params = DecodeParams(w=np.zeros((6, 28)), b=np.zeros(28))
        decoded = decode_attributes(rng.normal(size=(3, 6)), params, 17)
        arrays = init_anchors(3, GridSpec(np.zeros(3), np.ones(3), (4, 4, 4)), 0)
        out = apply_decoded(arrays, decoded)
        np.testing.assert_array_equal(out["centroid"], arrays["centroid"])
        np.testing.assert_array_equal(out["log_scale"], arrays["log_scale"])
        np.testing.assert_array_equal(out["rotation"], arrays["rotation"])
        np.testing.assert_array_equal(out["semantic_logits"], np.zeros((3, 17)))

    def test_28_channel_layout(self):
        decoded = decode_attributes(np.zeros((2, 6)), DecodeParams(w=np.zeros((6, 28)), b=np.arange(28.0)), 17)
        assert decoded.width == 28
        np.testing.assert_array_equal(decoded.centroid_offset[0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(decoded.log_scale_delta[0], [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(decoded.rotation_delta[0], [6.0, 7.0, 8.0, 9.0])
        assert decoded.opacity_logit[0] == 10.0
        np.testing.assert_array_equal(decoded.semantic_logits[0], np.arange(11.0, 28.0))

    def test_log_scale_shift_doubles_scale(self):
        b = np.zeros(28)
        b[3:6] = np.log(2.0)
        params = DecodeParams(w=np.zeros((6, 28)), b=b)
        decoded = decode_attributes(np.zeros((1, 6)), params, 17)
        arrays = init_anchors(1, GridSpec(np.zeros(3), np.ones(3), (4, 4, 4)), 0)
        out = apply_decoded(arrays, decoded)
        np.testing.assert_allclose(np.exp(out["log_scale"]), 2.0 * np.exp(arrays["log_scale"]), rtol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_attributes(np.zeros((1, 6)), DecodeParams(w=np.zeros((6, 20)), b=np.zeros(20)), 17)


class TestHeadEquivariance:
    def test_anchor_permutation_equivariance(self, small_bundle, small_model, small_grid):
        params = HeadParams.from_bundle(small_bundle, small_model, small_grid)
        rng = np.random.default_rng(12)
        n = 12
        centroids = rng.uniform(-6, 6, size=(n, 3))
        features = rng.normal(size=(n, small_model.feature_width))
        base_c, base_f = refine_features(centroids, features, params)
        for _ in range(10):
            perm = rng.permutation(n)
            out_c, out_f = refine_features(centroids[perm], features[perm], params)
            np.testing.assert_array_equal(out_c, base_c[perm])
            np.testing.assert_array_equal(out_f, base_f[perm])

    def test_run_head_applies_single_decode(self, small_bundle, small_model, small_grid):
        arrays = init_anchors(8, small_grid, seed=13, model=small_model)
        out = run_head(arrays, HeadParams.from_bundle(small_bundle, small_model, small_grid), 17)
        assert out["semantic_logits"].shape == (8, 17)
        norms = np.linalg.norm(out["rotation"], axis=1)
        np.testing.assert_allclose(norms, np.ones(8), atol=1e-9)


def isotropic_primitive(centroid, scale=1.0, opacity_logit=40.0, logits=None):
    return GaussianPrimitive(
        centroid=np.asarray(centroid, dtype=np.float64),
        log_scale=np.full(3, np.log(scale)),
        rotation=np.array([1.0, 0.0, 0.0, 0.0]),
        opacity_logit=opacity_logit,
        semantic_logits=np.zeros(17) if logits is None else logits,
    )


class TestSplat:
    def grid(self, n=9, h=1.0):
        # odd dims so a voxel center lands exactly on the origin
        origin = -np.full(3, n * h / 2.0)
        return GridSpec(origin=origin, voxel_size=np.full(3, h), dims=(n, n, n))

    def test_density_one_at_center(self):
        spec = self.grid()
        grid = splat_arrays(stack_primitives([isotropic_primitive([0.0, 0.0, 0.0])]), spec, 6.0)
        center = tuple(d // 2 for d in spec.dims)
        total = grid.scores[center].sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_density_at_unit_mahalanobis(self):
        spec = self.grid()
        grid = splat_arrays(stack_primitives([isotropic_primitive([0.0, 0.0, 0.0])]), spec, 6.0)
        center = tuple(d // 2 for d in spec.dims)
        neighbor = (center[0] + 1, center[1], center[2])
        assert grid.scores[neighbor].sum() == pytest.approx(np.exp(-0.5), abs=1e-9)

    def test_empty_scene_all_empty(self):
        spec = self.grid()
        empty = {
            "centroid": np.zeros((0, 3)),
            "log_scale": np.zeros((0, 3)),
            "rotation": np.zeros((0, 4)),
            "opacity_logit": np.zeros(0),
            "semantic_logits": np.zeros((0, 17)),
            "feature": np.zeros((0, 0)),
        }
        grid = splat_arrays(empty, spec, 6.0)
        assert np.all(grid.labels == 17)
        np.testing.assert_array_equal(grid.scores, np.zeros(spec.dims + (17,)))

    def test_degenerate_scale_reports_primitive(self):
        spec = self.grid()
        bad = GaussianPrimitive(
            centroid=np.zeros(3),
            log_scale=np.array([np.log(1e-7), 0.0, 0.0]),
            rotation=np.array([1.0, 0.0, 0.0, 0.0]),
            opacity_logit=0.0,
            semantic_logits=np.zeros(17),
        )
        with pytest.raises(DegenerateCovarianceError, match="primitive 1"):
            splat_arrays(stack_primitives([isotropic_primitive([0, 0, 0]), bad]), spec, 6.0)

    def test_truncation_radius_validated(self):
        with pytest.raises(ConfigurationError):
            splat_arrays(stack_primitives([isotropic_primitive([0, 0, 0])]), self.grid(), 0.5)

    def test_label_assignment_and_threshold(self):
        spec = self.grid()
        logits = np.zeros(17)
        logits[4] = 30.0
        grid = splat_arrays(stack_primitives([isotropic_primitive([0.0, 0.0, 0.0], logits=logits)]), spec, 6.0)
        center = tuple(d // 2 for d in spec.dims)
        assert grid.labels[center] == 4
        assert grid.labels[0, 0, 0] == 17

    def test_thread_sharding_bitwise_identical(self):
        rng = np.random.default_rng(14)
        prims = [
            isotropic_primitive(rng.uniform(-3, 3, size=3), scale=float(rng.uniform(0.4, 1.5)),
                                opacity_logit=float(rng.normal()), logits=rng.normal(size=17))
            for _ in range(24)
        ]
        spec = self.grid(n=16, h=0.5)
        a = splat_arrays(stack_primitives(prims), spec, 4.0, threads=1)
        b = splat_arrays(stack_primitives(prims), spec, 4.0, threads=4)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.labels, b.labels)
