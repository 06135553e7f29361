import ast
import inspect
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import gaussocc
from gaussocc import head
from gaussocc.core import (
    GaussianPrimitive,
    GridSpec,
    ModelConfig,
    _softplus,
    init_anchors,
    make_covariance,
    normalize_quaternion,
    stack_primitives,
)
from gaussocc.errors import (
    ConfigurationError,
    DegenerateCovarianceError,
    SequenceTooShortError,
    SplatWorkerError,
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
    _inverse_permutation,
    consensus_update,
    mamba_unet_refine,
    raster_serialize,
    refine_features,
    run_head,
    selective_scan,
    splat_arrays,
    zoh_discretize,
)
from gaussocc.params import AXIS_PLANES, PLANES, build_parameter_bundle


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
        np.testing.assert_array_equal(raster_serialize(coords, omega=10.0), [2, 1, 0])

    def test_single_point_identity(self):
        np.testing.assert_array_equal(raster_serialize(np.array([[3.0, 4.0]]), omega=10.0), [0])

    def test_duplicate_coordinates_stable(self):
        coords = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(raster_serialize(coords, omega=10.0), [2, 0, 1])

    def test_key_scale_too_small(self):
        coords = np.array([[0.0, 0.0], [20.0, 1.0]])
        with pytest.raises(ConfigurationError):
            raster_serialize(coords, omega=10.0)

    def test_inverse_is_identity_on_features(self):
        rng = np.random.default_rng(0)
        coords = rng.uniform(-5, 5, size=(40, 2))
        features = rng.normal(size=(40, 7))
        order = raster_serialize(coords, omega=100.0)
        np.testing.assert_array_equal(features[order][_inverse_permutation(order)], features)


class TestZohDiscretize:
    def test_hand_values(self):
        abar, bbar = zoh_discretize(-1.0, 1.0, np.log(2.0))
        assert not isinstance(abar, np.ndarray) and not isinstance(bbar, np.ndarray)  # 0-d inputs give scalars
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
        # small |z|, 1e-8 to 1e-3, where expm1 keeps the digits that exp(z) - 1 loses
        z = -np.logspace(-8, -3, 200)
        a = np.full_like(z, -1.0)
        delta = -z  # so delta * a == z
        _, bbar = zoh_discretize(a, 1.0, delta)
        exact = (np.expm1(z) / z) * delta
        np.testing.assert_allclose(bbar, exact, rtol=1e-10)

    def test_edge_mix_matches_expm1_formula(self):
        # z = 0 (delta = 0), |z| around 1e-4 and from 1e-9 up to 50, both signs of a
        mags = np.concatenate([[0.0, 0.99e-4, 1.01e-4], np.logspace(-9, np.log10(50.0), 301)])
        a = np.concatenate([-np.ones_like(mags), np.ones_like(mags)])
        delta = np.concatenate([mags, mags])
        b = np.linspace(-2.0, 3.0, a.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            abar, bbar = zoh_discretize(a, b, delta)
        z = delta * a
        np.testing.assert_array_equal(abar, np.exp(z))
        np.testing.assert_array_equal(bbar, np.expm1(z) / a * b)
        assert np.all(np.isfinite(abar)) and np.all(np.isfinite(bbar))

    def test_out_buffers_bitwise_equal_to_allocating_call(self):
        # the scan's shapes: a (1, F, N), b (T, 1, N), delta (T, F, 1), with
        # z == 0 and small- and larger-|z| entries of the one expm1 formula
        rng = np.random.default_rng(17)
        t, f, n = 6, 5, 3
        a = -rng.uniform(0.5, 4.0, size=(1, f, n))
        b = rng.normal(size=(t, 1, n))
        delta = rng.uniform(1e-3, 2.0, size=(t, f, 1))
        delta[1] = 0.0
        delta[2, :3] = 1e-7
        delta[4, 1] = 2e-5
        want_abar, want_bbar = zoh_discretize(a, b, delta)
        assert np.any(np.abs(delta * a) < 1e-4) and np.any(np.abs(delta * a) >= 1e-4)  # both small and larger |z|
        abar_buf, bbar_buf = np.full((t, f, n), np.nan), np.full((t, f, n), np.nan)
        abar, bbar = zoh_discretize(a, b, delta, out=(abar_buf, bbar_buf))
        assert abar is abar_buf and bbar is bbar_buf
        np.testing.assert_array_equal(abar, want_abar)
        np.testing.assert_array_equal(bbar, want_bbar)


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
        # lengths that end exactly on, one past, and one past two time blocks
        rng = np.random.default_rng(9)
        params = random_ssm(rng, 16, 4)
        block = max(1, head._SCAN_BLOCK_BYTES // (8 * 16 * 4))
        for t in (block, block + 1, 2 * block + 1):
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


def reference_selective_scan(tokens, params):
    """The scan in fixed 1024-token blocks with fresh arrays per block, kept as its bitwise reference."""
    x = np.asarray(tokens, dtype=np.float64)
    t_total, f = x.shape
    delta = _softplus(x @ params.w_delta + params.b_delta)
    b_in = x @ params.w_b
    c_out = x @ params.w_c
    h = np.zeros((f, params.a.shape[1]))
    y = np.empty_like(x)
    block = 1024
    for start in range(0, t_total, block):
        stop = min(start + block, t_total)
        abar, states = zoh_discretize(
            params.a[None], b_in[start:stop, None, :], delta[start:stop, :, None]
        )
        states *= x[start:stop, :, None]
        for t in range(stop - start):
            states[t] += abar[t] * h
            h = states[t]
        y[start:stop] = np.matmul(states, c_out[start:stop, :, None])[..., 0]
        y[start:stop] += params.d_skip * x[start:stop]
    return y


class TestScanTimeBlocks:
    T, F, N = 47, 16, 4

    def inputs(self):
        """Tokens whose channel 0 switches the step: -3 makes every |z| < 1e-4 (small steps)."""
        rng = np.random.default_rng(18)
        params = random_ssm(rng, self.F, self.N)
        w_delta = params.w_delta.copy()
        w_delta[0] = 5.0
        params = SsmParams(a=params.a, w_b=params.w_b, w_c=params.w_c, w_delta=w_delta,
                           b_delta=params.b_delta, d_skip=params.d_skip)
        tokens = rng.normal(size=(self.T, self.F))
        tokens[:, 0] = rng.uniform(-0.5, 0.5, size=self.T)
        tokens[[3, 20, 43, 45], 0] = -3.0  # 43 and 45 lie in the short last block (42-46) of 7-token blocks
        return tokens, params

    @pytest.mark.parametrize("block", [1, 7, T])
    def test_bitwise_equal_to_reference_for_any_block(self, monkeypatch, block):
        tokens, params = self.inputs()
        z = np.abs(np.log1p(np.exp(tokens @ params.w_delta + params.b_delta))[:, :, None] * params.a)
        assert np.all(z[[43, 45]] < 1e-4) and np.any(z[44] >= 1e-4)
        want = reference_selective_scan(tokens, params)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return zoh_discretize(*args, **kwargs)

        monkeypatch.setattr(head, "_SCAN_BLOCK_BYTES", block * 8 * self.F * self.N)
        monkeypatch.setattr(head, "zoh_discretize", counted)
        got = selective_scan(tokens, params)
        assert len(calls) == -(-self.T // block)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(got, oracle_sequential_scan(tokens, params), rtol=1e-9, atol=1e-12)

    def test_zero_tokens(self):
        _, params = self.inputs()
        assert selective_scan(np.zeros((0, self.F)), params).shape == (0, self.F)

    def test_peak_allocation_stays_block_sized(self):
        # an occ3d-sized bottleneck scan: 1024-token (16.8 MB) blocks peaked at
        # 77 MB, 16 MB block buffers reach 43 MB, 0.5 MB ones 13.5 MB
        rng = np.random.default_rng(19)
        params = random_ssm(rng, 128, 16)
        tokens = rng.normal(size=(3200, 128))
        tracemalloc.start()
        try:
            selective_scan(tokens, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 73.1e6 / 4, peak


def record_products(monkeypatch):
    """Every ``np.matmul`` call from here on: (thread, m, k, n), n None for a vector right operand."""
    products, real = [], np.matmul

    def record(a, b, *args, **kwargs):
        n = b.shape[-1] if b.ndim > 1 else None
        products.append((threading.get_ident(), a.shape[-2], a.shape[-1], n))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", record)
    return products


def within_blas_cutoff(m, k, n):
    """Whether OpenBLAS runs an (m, k) @ (k, n) product, or an (m, k) @ (k,) one for n None, on one thread."""
    return m * k < head.BLAS_GEMV_THREAD_MK if n is None else m * k * n <= head.BLAS_THREAD_MNK


class TestProduct:
    # the head's widths: the embed's (2, F), F x F maps, the scan's F x N and the offset heads' (F,)
    WIDTHS = [(2, 32), (2, 128), (32, 32), (32, 8), (32, None), (128, 128), (128, 16), (128, None)]

    @staticmethod
    def lengths(k, n):
        """Row counts around one and two full blocks (the largest multiple of 8 rows within the
        cutoff), the ones that end in a one-row block included."""
        rows = (head.BLAS_THREAD_MNK // (k * n) if n else (head.BLAS_GEMV_THREAD_MK - 1) // k) // 8 * 8
        return (1, 2, 7, 9, rows - 1, rows, rows + 1, 2 * rows + 1, 3 * rows + 5, 6401)

    @pytest.mark.parametrize("k,n", WIDTHS)
    def test_blocks_stay_on_one_blas_thread(self, monkeypatch, k, n):
        rng = np.random.default_rng(31)
        w = rng.normal(size=(k, n) if n else k)
        products = record_products(monkeypatch)
        head._product(rng.normal(size=(40000, k)), w)
        assert products[0][1] == self.lengths(k, n)[5] and len(products) > 1
        for m in self.lengths(k, n):
            products.clear()
            head._product(rng.normal(size=(m, k)), w)
            assert sum(p[1] for p in products) == m
            assert all(p[1] % 8 == 0 for p in products[:-2])  # the last two may give up 8 rows to no one-row block
            assert all(within_blas_cutoff(*p[1:]) for p in products)
            assert m == 1 or min(p[1] for p in products) > 1  # a one-row product would be a gemv

    def test_bitwise_equal_to_whole_product_on_one_blas_thread(self):
        # In a fresh interpreter with one BLAS thread, so that the whole product is not split over
        # threads either: a threaded gemv can round the last rows of a thread's share differently.
        cases = [(k, n, self.lengths(k, n)) for k, n in self.WIDTHS]
        script = (
            "import numpy as np\n"
            "from gaussocc import head\n"
            "rng = np.random.default_rng(31)\n"
            f"for k, n, lengths in {cases}:\n"
            "    w = rng.normal(size=(k, n) if n else k)\n"
            "    for m in lengths:\n"
            "        x = rng.normal(size=(m, k))\n"
            "        assert np.array_equal(head._product(x, w), x @ w), (k, n, m)\n"
        )
        src = os.path.dirname(os.path.dirname(gaussocc.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("k,n", [w for w in WIDTHS if w[1]])
    def test_gemm_widths_bitwise_equal_to_threaded_whole_product(self, k, n):
        rng = np.random.default_rng(32)
        w = rng.normal(size=(k, n))
        for m in (57, 1601, 3201, 6400, 12800, 12801):
            x = rng.normal(size=(m, k))
            np.testing.assert_array_equal(head._product(x, w), x @ w)

    def test_writes_into_out(self):
        rng = np.random.default_rng(33)
        x, w = rng.normal(size=(300, 128)), rng.normal(size=(128, 128))
        buf = np.full((300, 128), np.nan)
        assert head._product(x, w, buf) is buf
        np.testing.assert_array_equal(buf, x @ w)


def reference_unet(tokens, params):
    """The U-Net over the whole sequence at once, with whole products, kept as its bitwise reference."""
    x = np.asarray(tokens, dtype=np.float64)
    e1 = head._avg_pool2(x) @ params.enc1
    e2 = head._avg_pool2(e1) @ params.enc2
    bottom = reference_selective_scan(e2, params.ssm)
    d1 = head._unpool2(bottom, e1.shape[0]) @ params.dec1
    d1 += e1
    d0 = head._unpool2(d1, x.shape[0]) @ params.dec2
    d0 += x
    return d0


def random_unet(rng, f, n):
    enc = lambda: rng.normal(size=(f, f)) / np.sqrt(f)
    return UnetParams(enc1=enc(), enc2=enc(), dec1=enc(), dec2=enc(), ssm=random_ssm(rng, f, n))


class TestUnetBlocks:
    # 33-36 tokens end in a block of 1-4 rows, joined to the one before; 37 in one of 5
    @pytest.mark.parametrize("block", [32, 1024])
    @pytest.mark.parametrize("f,n,lengths", [(32, 8, (4, 5, 31, 33, 34, 35, 36, 37, 64, 101, 515)),
                                             (128, 16, (36, 37, 290, 600))])
    def test_bitwise_equal_to_whole_sequence(self, monkeypatch, block, f, n, lengths):
        rng = np.random.default_rng(34)
        params = random_unet(rng, f, n)
        monkeypatch.setattr(head, "_UNET_BLOCK_ROWS", block)
        for t in lengths:
            tokens = rng.normal(size=(t, f))
            want = reference_unet(tokens, params)
            np.testing.assert_array_equal(mamba_unet_refine(tokens, params), want)
            assert mamba_unet_refine(tokens, params, out=tokens) is tokens  # in place
            np.testing.assert_array_equal(tokens, want)

    def test_blocks_carry_the_scan_state(self, monkeypatch):
        # 32-row blocks of 101 tokens: three scans of 8 bottleneck rows, then one of 2 (5 tokens)
        rng = np.random.default_rng(35)
        params = random_unet(rng, 32, 8)
        monkeypatch.setattr(head, "_UNET_BLOCK_ROWS", 32)
        scans, real = [], head.selective_scan

        def counted(tokens, ssm, state=None):
            scans.append((len(tokens), state.copy()))
            return real(tokens, ssm, state)

        monkeypatch.setattr(head, "selective_scan", counted)
        mamba_unet_refine(rng.normal(size=(101, 32)), params)
        assert [t for t, _ in scans] == [8, 8, 8, 2]
        assert not scans[0][1].any() and all(state.any() for _, state in scans[1:])

    def test_in_place_peak_allocation_stays_block_sized(self):
        # an occ3d-sized plane (12,800 x 128, N = 16) refined in place holds one block's temporaries,
        # 2.8 MB; the U-Net over the whole sequence at once holds more than its 13 MB input
        rng = np.random.default_rng(36)
        params = random_unet(rng, 128, 16)
        tokens = rng.normal(size=(12800, 128))
        tracemalloc.start()
        try:
            mamba_unet_refine(tokens, params, out=tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_row_blocks_join_a_short_last_block(self, monkeypatch):
        monkeypatch.setattr(head, "_UNET_BLOCK_ROWS", 32)
        assert head._row_blocks(4) == [(0, 4)]
        assert head._row_blocks(64) == [(0, 32), (32, 64)]
        assert head._row_blocks(68) == [(0, 32), (32, 68)]
        assert head._row_blocks(69) == [(0, 32), (32, 64), (64, 69)]


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
            plane: (rng.normal(size=(n, f)), _inverse_permutation(raster_serialize(rng.uniform(-4, 4, size=(n, 2)), 64.0)))
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


def decode_only(w, b, count):
    """``run_head`` with no refinement blocks, so only the attribute decode acts,
    on ``count`` seeded anchors with random features."""
    arrays = init_anchors(count, GridSpec(np.zeros(3), np.ones(3), (4, 4, 4)), 0, model=ModelConfig(feature_width=6))
    arrays["feature"] = np.random.default_rng(11).normal(size=(count, 6))
    params = HeadParams(blocks=(), decode=DecodeParams(w=w, b=b), omega=100.0)
    return arrays, run_head(arrays, params, 17)


class TestDecodeAttributes:
    def test_zero_decode_leaves_geometry(self):
        arrays, out = decode_only(np.zeros((6, 28)), np.zeros(28), 3)
        np.testing.assert_array_equal(out["centroid"], arrays["centroid"])
        np.testing.assert_array_equal(out["log_scale"], arrays["log_scale"])
        np.testing.assert_array_equal(out["rotation"], arrays["rotation"])
        np.testing.assert_array_equal(out["semantic_logits"], np.zeros((3, 17)))

    def test_28_channel_layout(self):
        # identity rotations plus the delta (6, 7, 8, 9), renormalized
        arrays, out = decode_only(np.zeros((6, 28)), np.arange(28.0), 2)
        np.testing.assert_array_equal(out["centroid"][0], arrays["centroid"][0] + [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(out["log_scale"][0], arrays["log_scale"][0] + [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(out["rotation"][0], normalize_quaternion(np.array([7.0, 7.0, 8.0, 9.0])))
        assert out["opacity_logit"][0] == 10.0
        np.testing.assert_array_equal(out["semantic_logits"][0], np.arange(11.0, 28.0))
        assert out["opacity_logit"].flags.c_contiguous and out["semantic_logits"].flags.c_contiguous

    def test_rows_scatter_back_to_their_anchors(self):
        # the decode runs in canonical order; each row must come back to its
        # own anchor, so it matches the anchor-order decode up to BLAS rounding
        rng = np.random.default_rng(17)
        w, b = rng.normal(size=(6, 28)), rng.normal(size=28)
        arrays, out = decode_only(w, b, 23)
        raw = arrays["feature"] @ w + b
        close = dict(rtol=0, atol=1e-12)
        np.testing.assert_allclose(out["centroid"], arrays["centroid"] + raw[:, 0:3], **close)
        np.testing.assert_allclose(out["log_scale"], arrays["log_scale"] + raw[:, 3:6], **close)
        np.testing.assert_allclose(out["rotation"], normalize_quaternion(arrays["rotation"] + raw[:, 6:10]), **close)
        np.testing.assert_allclose(out["opacity_logit"], raw[:, 10], **close)
        np.testing.assert_allclose(out["semantic_logits"], raw[:, 11:], **close)

    def test_log_scale_shift_doubles_scale(self):
        b = np.zeros(28)
        b[3:6] = np.log(2.0)
        arrays, out = decode_only(np.zeros((6, 28)), b, 1)
        np.testing.assert_allclose(np.exp(out["log_scale"]), 2.0 * np.exp(arrays["log_scale"]), rtol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_only(np.zeros((6, 20)), np.zeros(20), 1)


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


class TestHeadLinearCost:
    def test_scan_work_doubles_with_the_anchors(self, small_bundle, small_model, small_grid, monkeypatch):
        # operation counts, not wall time: twice the anchors must give exactly
        # twice the scanned tokens and state updates (T F N) in as many calls
        params = HeadParams.from_bundle(small_bundle, small_model, small_grid)
        scan, scans = head.selective_scan, []

        def counted(tokens, ssm, state=None):
            scans.append((len(tokens), tokens.size * ssm.a.shape[1]))
            return scan(tokens, ssm, state)

        monkeypatch.setattr(head, "selective_scan", counted)
        work = []
        for n in (64, 128):  # multiples of 4, so both pooling levels halve exactly
            scans.clear()
            run_head(init_anchors(n, small_grid, seed=21, model=small_model), params, 17)
            work.append((len(scans), *np.sum(scans, axis=0)))
        (calls, tokens, updates), (calls2, tokens2, updates2) = work
        assert calls == calls2 == 3 * small_model.head_blocks
        assert tokens == calls * 64 // 4
        assert (tokens2, updates2) == (2 * tokens, 2 * updates)


class TestHeadThreads:
    # occ3d's widths (F = 128, N = 16), one block, at the floor of the threaded path
    MODEL = ModelConfig(feature_width=128, state_width=16, head_blocks=1)
    ANCHORS = head._PLANE_THREAD_VALUES // 128

    @pytest.fixture(scope="class")
    def inputs(self, small_grid):
        params = HeadParams.from_bundle(build_parameter_bundle(self.MODEL, seed=41), self.MODEL, small_grid)
        arrays = init_anchors(self.ANCHORS, small_grid, seed=42, model=self.MODEL)
        arrays["feature"] = np.random.default_rng(43).normal(size=(self.ANCHORS, 128))
        return arrays, params

    def test_plane_workers(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        assert head._plane_workers(2, self.ANCHORS, 128) == 3
        assert head._plane_workers(8, 4 * self.ANCHORS, 32) == 3
        assert head._plane_workers(1, self.ANCHORS, 128) == 1
        assert head._plane_workers(2, self.ANCHORS - 1, 128) == 1
        monkeypatch.setattr(head, "_usable_cores", lambda: 1)
        assert head._plane_workers(2, self.ANCHORS, 128) == 1

    def test_bitwise_equal_for_one_and_two_threads(self, inputs, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        arrays, params = inputs
        planes_seen = []
        real = head._refine_plane

        def recorded(block, plane, *args):
            planes_seen.append((plane, threading.current_thread() is threading.main_thread()))
            return real(block, plane, *args)

        monkeypatch.setattr(head, "_refine_plane", recorded)
        serial = run_head(arrays, params, 17, threads=1)
        assert planes_seen == [(plane, True) for plane in PLANES]
        planes_seen.clear()
        before, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the three plane threads switch as often as they can
        try:
            threaded = run_head(arrays, params, 17, threads=2)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before  # the pool is shut down before run_head returns
        assert sorted(planes_seen) == [(plane, False) for plane in PLANES]
        for key in serial:
            np.testing.assert_array_equal(threaded[key], serial[key])

    def test_plane_products_at_or_below_blas_cutoff(self, inputs, monkeypatch):
        # every product the plane threads make stays on their own thread (see test_class_products_at_or_below_blas_cutoff)
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        arrays, params = inputs
        products = record_products(monkeypatch)
        run_head(arrays, params, 17, threads=2)
        monkeypatch.undo()
        main = threading.main_thread().ident
        in_planes = [p[1:] for p in products if p[0] != main]
        assert len(in_planes) > 100 and {n for _, _, n in in_planes} >= {16, 128}
        assert all(within_blas_cutoff(*p) for p in in_planes), max(in_planes, key=lambda p: p[0] * p[1] * (p[2] or 1))
        # the offset heads run on the calling thread after the planes, below the cutoff too (the decode is an `@`)
        heads = [p[1:] for p in products if p[0] == main and p[3] is None]
        assert len(heads) >= 6 and all(within_blas_cutoff(*p) for p in heads)

    def test_plane_path_has_no_matmul_operator(self):
        # `@` does not reach the recorder above, so the plane path uses np.matmul (through _product) only
        for fn in (PlaneEmbedParams.__call__, head._refine_plane, head._product, mamba_unet_refine,
                   selective_scan, consensus_update):
            tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
            assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree)), fn.__qualname__


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
        for radius in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                splat_arrays(stack_primitives([isotropic_primitive([0, 0, 0])]), self.grid(), radius)

    def test_label_assignment_and_threshold(self):
        spec = self.grid()
        logits = np.zeros(17)
        logits[4] = 30.0
        grid = splat_arrays(stack_primitives([isotropic_primitive([0.0, 0.0, 0.0], logits=logits)]), spec, 6.0)
        center = tuple(d // 2 for d in spec.dims)
        assert grid.labels[center] == 4
        assert grid.labels[0, 0, 0] == 17

    def test_threshold_is_inclusive(self):
        spec = self.grid()
        logits = np.zeros(17)
        logits[6] = 5.0
        arrays = stack_primitives([isotropic_primitive([0.0, 0.0, 0.0], opacity_logit=-1.0, logits=logits)])
        peak = float(head._splat_inputs(arrays, spec, 6.0).opacity[0])  # density at the center voxel
        center = tuple(d // 2 for d in spec.dims)
        assert splat_arrays(arrays, spec, 6.0, occupancy_threshold=peak).labels[center] == 6
        assert splat_arrays(arrays, spec, 6.0, occupancy_threshold=np.nextafter(peak, 1.0)).labels[center] == 17

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


def reference_splat_slab(x_lo, x_hi, spec, centroids, inv_sigma, half_extents, opacity, class_probs,
                         radius_sq, density, scores):
    """The per-primitive loop, in ascending primitive order: the reference of the tile kernel."""
    dims = spec.dims
    axes_y = spec.origin[1] + (np.arange(dims[1]) + 0.5) * spec.voxel_size[1]
    axes_z = spec.origin[2] + (np.arange(dims[2]) + 0.5) * spec.voxel_size[2]
    axes_x = spec.origin[0] + (np.arange(dims[0]) + 0.5) * spec.voxel_size[0]
    lo_idx = np.ceil((centroids - half_extents - spec.origin) / spec.voxel_size - 0.5).astype(np.int64)
    hi_idx = np.floor((centroids + half_extents - spec.origin) / spec.voxel_size - 0.5).astype(np.int64)
    lo_idx = np.clip(lo_idx, 0, np.asarray(dims) - 1)
    hi_idx = np.clip(hi_idx, 0, np.asarray(dims) - 1)
    for i in range(len(centroids)):
        x0 = max(lo_idx[i, 0], x_lo)
        x1 = min(hi_idx[i, 0], x_hi - 1)
        if x0 > x1:
            continue
        y0, y1 = lo_idx[i, 1], hi_idx[i, 1]
        z0, z1 = lo_idx[i, 2], hi_idx[i, 2]
        if y0 > y1 or z0 > z1:
            continue
        dx = axes_x[x0 : x1 + 1] - centroids[i, 0]
        dy = axes_y[y0 : y1 + 1] - centroids[i, 1]
        dz = axes_z[z0 : z1 + 1] - centroids[i, 2]
        m = inv_sigma[i]
        quad = (
            m[0, 0] * (dx**2)[:, None, None]
            + m[1, 1] * (dy**2)[None, :, None]
            + m[2, 2] * (dz**2)[None, None, :]
            + 2.0 * m[0, 1] * dx[:, None, None] * dy[None, :, None]
            + 2.0 * m[0, 2] * dx[:, None, None] * dz[None, None, :]
            + 2.0 * m[1, 2] * dy[None, :, None] * dz[None, None, :]
        )
        inside = quad <= radius_sq
        if not inside.any():
            continue
        dens = np.where(inside, opacity[i] * np.exp(-0.5 * quad), 0.0)
        density[x0 : x1 + 1, y0 : y1 + 1, z0 : z1 + 1] += dens
        scores[x0 : x1 + 1, y0 : y1 + 1, z0 : z1 + 1] += dens[..., None] * class_probs[i]


def random_arrays(rng, count, spec, classes=17):
    """Anisotropic, rotated primitives whose boxes overhang every grid face; some lie wholly outside."""
    lo, hi = spec.origin, spec.origin + spec.extent
    margin = 0.3 * spec.extent
    rotation = rng.normal(size=(count, 4))
    return {
        "centroid": rng.uniform(lo - margin, hi + margin, size=(count, 3)),
        "log_scale": np.log(rng.uniform(0.15, 1.2, size=(count, 3))),
        "rotation": rotation / np.linalg.norm(rotation, axis=1, keepdims=True),
        "opacity_logit": rng.normal(size=count),
        "semantic_logits": rng.normal(size=(count, classes)),
    }


def slab_grid(x_dim=13):
    # 13 x 12 x 9 ends in a partial 8 x 8 x 8 tile on every axis; odd x extents cut unevenly into slabs
    return GridSpec(origin=np.array([-3.0, -2.5, -1.0]), voxel_size=np.array([0.5, 0.4, 0.3]),
                    dims=(x_dim, 12, 9))


def splat_by_slabs(inputs, spec, slabs, threshold=0.1):
    """Run the slab kernel and the labelling over ``slabs`` x-slabs in-process."""
    c_sem = inputs.class_probs.shape[1]
    density, scores, labels = head._grid_buffers(spec.dims, c_sem)
    bounds = head._slab_bounds(spec.dims[0], slabs)
    for x_lo, x_hi in zip(bounds[:-1], bounds[1:]):
        head._splat_slab(x_lo, x_hi, inputs, density, scores)
        head._label_slab(x_lo, x_hi, density, scores, labels, threshold)
    return density, scores, labels


class TestSplatSlabKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_1e_12_of_reference_loop(self, seed):
        # the tile matmul reassociates each voxel's sum over primitives, so the bound is 1e-12, not bitwise
        rng = np.random.default_rng(seed)
        spec = slab_grid()
        arrays = random_arrays(rng, 60, spec)
        # boxes straddling the slab cut and tile edge x = 8 and the tile edges y = 8 and z = 8
        for axis in range(3):
            rows = slice(8 * axis, 8 * axis + 8)
            arrays["centroid"][rows, axis] = spec.origin[axis] + spec.voxel_size[axis] * rng.uniform(7.5, 8.5, size=8)
        inputs = head._splat_inputs(arrays, spec, 3.0)
        sigma = make_covariance(np.exp(arrays["log_scale"]), arrays["rotation"])
        half_extents = 3.0 * np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
        for slabs in (1, 2, 3):
            bounds = head._slab_bounds(spec.dims[0], slabs)
            for x_lo, x_hi in zip(bounds[:-1], bounds[1:]):
                want_d, want_s = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
                reference_splat_slab(x_lo, x_hi, spec, inputs.centroid, inputs.inv_sigma, half_extents,
                                     inputs.opacity, inputs.class_probs, 9.0, want_d, want_s)
                got_d, got_s = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
                head._splat_slab(x_lo, x_hi, inputs, got_d, got_s)
                np.testing.assert_allclose(got_d, want_d, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got_s, want_s, rtol=0, atol=1e-12)
        # the clipped boxes touch all six faces of the grid
        _, whole, _ = splat_by_slabs(inputs, spec, 1)
        touched = np.any(whole != 0, axis=-1)
        for axis in range(3):
            assert np.take(touched, 0, axis=axis).any() and np.take(touched, -1, axis=axis).any()

    def test_single_primitive_bitwise_equal_to_reference(self):
        # One primitive per tile leaves the matmul a single product, so each pair's density keeps its bits.
        # The reference is a per-primitive loop in the kernel's grouping: the six terms summed as
        # (xx + yy + xy) + (zz + yz) + xz, and opacity multiplied into the class row, not into the density.
        rng = np.random.default_rng(9)
        spec = slab_grid()
        arrays = random_arrays(rng, 30, spec)
        sigma = make_covariance(np.exp(arrays["log_scale"]), arrays["rotation"])
        half_extents = 3.0 * np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
        axes = spec.axis_centers
        splatted = 0
        for i in range(30):
            one = {key: value[i : i + 1] for key, value in arrays.items()}
            inputs = head._splat_inputs(one, spec, 3.0)
            want_d, want_s = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
            lo = np.ceil((inputs.centroid[0] - half_extents[i] - spec.origin) / spec.voxel_size - 0.5).astype(int)
            hi = np.floor((inputs.centroid[0] + half_extents[i] - spec.origin) / spec.voxel_size - 0.5).astype(int)
            lo, hi = np.clip(lo, 0, np.asarray(spec.dims) - 1), np.clip(hi, 0, np.asarray(spec.dims) - 1)
            if np.all(lo <= hi):
                dx, dy, dz = (axes[a][lo[a] : hi[a] + 1] - inputs.centroid[0, a] for a in range(3))
                m = inputs.inv_sigma[0]
                pxy = m[0, 0] * dx[:, None] ** 2 + m[1, 1] * dy**2 + 2.0 * m[0, 1] * dx[:, None] * dy
                pyz = m[2, 2] * dz**2 + 2.0 * m[1, 2] * dy[:, None] * dz
                pxz = 2.0 * m[0, 2] * dx[:, None] * dz
                quad = pxy[:, :, None] + pyz[None] + pxz[:, None]
                dens = np.where(quad <= 9.0, np.exp(-0.5 * quad), 0.0)
                box = tuple(slice(lo[a], hi[a] + 1) for a in range(3))
                want_d[box] = dens * inputs.opacity[0]
                want_s[box] = dens[..., None] * (inputs.opacity[0] * inputs.class_probs[0])
            got_d, got_s, _ = splat_by_slabs(inputs, spec, 2)
            np.testing.assert_array_equal(got_d, want_d)
            np.testing.assert_array_equal(got_s, want_s)
            splatted += bool(want_d.any())
        assert splatted >= 15

    @pytest.mark.parametrize("run_rows", [1, 40])
    def test_axis_term_runs_bitwise_equal_to_one_run(self, monkeypatch, run_rows):
        # A budget of one row puts a run boundary at every tile; 40 rows gives runs of 2-3 tiles that end
        # in a ragged, shorter run.  Each row's terms are the same whichever run builds them.
        spec = slab_grid(29)
        inputs = head._splat_inputs(random_arrays(np.random.default_rng(29), 50, spec), spec, 3.0)
        runs, real = [], head._tile_runs

        def record(starts, stops, rows):
            cuts = list(real(starts, stops, rows))
            runs.append([(int(stops[t1 - 1] - starts[t0]), t1 - t0) for t0, t1 in cuts])  # (rows, tiles)
            return cuts

        monkeypatch.setattr(head, "_tile_runs", record)
        want_d, want_s = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
        head._splat_slab(0, spec.dims[0], inputs, want_d, want_s)
        monkeypatch.setattr(head, "_AXIS_RUN_BYTES", run_rows * head._AXIS_ROW_BYTES)
        got_d, got_s = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
        head._splat_slab(0, spec.dims[0], inputs, got_d, got_s)
        np.testing.assert_array_equal(got_d, want_d)
        np.testing.assert_array_equal(got_s, want_s)
        one_run, cut = runs
        assert len(one_run) == 1 and one_run[0][1] == 16  # every tile of the grid in one run
        if run_rows == 1:
            assert [tiles for _, tiles in cut] == [1] * 16
        else:
            assert len(cut) > 2 and max(tiles for _, tiles in cut) > 1
            assert all(rows <= run_rows for rows, _ in cut) and cut[-1][0] < min(rows for rows, _ in cut[:-1])

    def test_peak_allocation_below_unbounded_axis_terms(self, monkeypatch):
        # Primitives spanning about two tiles per axis on a grid of 128 tiles: many (primitive, tile) rows,
        # about 80 primitives per tile.  With runs of 64 rows, one slab's peak must stay below the axis
        # terms of all its rows at once.
        rng = np.random.default_rng(12)
        spec = GridSpec(origin=np.array([-8.0, -8.0, -2.0]), voxel_size=np.full(3, 0.25), dims=(64, 64, 16))
        arrays = random_arrays(rng, 1500, spec)
        arrays["centroid"] = rng.uniform(spec.origin, spec.origin + spec.extent, size=(1500, 3))
        arrays["log_scale"] = np.log(rng.uniform(0.3, 0.6, size=(1500, 3)))
        inputs = head._splat_inputs(arrays, spec, 3.0)
        met = np.all(inputs.lo <= inputs.hi, axis=1)
        rows = int(np.prod(inputs.hi[met] // head.TILE - inputs.lo[met] // head.TILE + 1, axis=1).sum())
        unbounded = rows * head._AXIS_ROW_BYTES
        assert unbounded > 4 * 2**20
        monkeypatch.setattr(head, "_AXIS_RUN_BYTES", 64 * head._AXIS_ROW_BYTES)
        density, scores = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
        tracemalloc.start()
        try:
            head._splat_slab(0, spec.dims[0], inputs, density, scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert density.any()
        assert peak < unbounded, (peak, unbounded)  # about 0.45 of it; 1.76 with the whole slab's terms at once

    def test_class_products_at_or_below_blas_cutoff(self, monkeypatch):
        # The inputs of test_workers_forked_after_threaded_blas: the tile at the origin holds P > 868
        # primitives, so one (64 x P) @ (P x 18) product would pass OpenBLAS's threading cutoff.
        spec = slab_grid(29)
        arrays = random_arrays(np.random.default_rng(11), 2500, spec)
        inputs = head._splat_inputs(arrays, spec, 3.0)
        p_first = np.count_nonzero(np.all(inputs.lo <= np.minimum(inputs.hi, 7), axis=1))
        assert p_first > 868
        products, real = [], np.matmul

        def record(a, b, *args, **kwargs):
            products.append((a.shape[-2], a.shape[-1], b.shape[-1]))  # (m, k, n)
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", record)
        density, scores = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
        head._splat_slab(0, 8, inputs, density, scores)
        monkeypatch.undo()
        assert max(m * n * k for m, k, n in products) <= head.BLAS_THREAD_MNK
        ks = np.cumsum([k for _, k, _ in products])
        assert p_first in ks[1:]  # the origin tile, whose rows come first, took more than one product
        # the blocks' partial products are all summed: within rounding of the per-primitive loop
        sigma = make_covariance(np.exp(arrays["log_scale"]), arrays["rotation"])
        half_extents = 3.0 * np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
        want_d, want_s = np.zeros(spec.dims), np.zeros(spec.dims + (17,))
        reference_splat_slab(0, 8, spec, inputs.centroid, inputs.inv_sigma, half_extents,
                             inputs.opacity, inputs.class_probs, 9.0, want_d, want_s)
        np.testing.assert_allclose(density, want_d, rtol=0, atol=1e-12 * want_d.max())
        np.testing.assert_allclose(scores, want_s, rtol=0, atol=1e-12 * want_d.max())

    def test_labels_match_whole_volume_expression(self):
        rng = np.random.default_rng(7)
        spec = slab_grid()
        inputs = head._splat_inputs(random_arrays(rng, 40, spec), spec, 3.0)
        density, scores, labels = splat_by_slabs(inputs, spec, 3, threshold=0.2)
        want = np.where(density >= 0.2, np.argmax(scores, axis=-1), 17).astype(np.uint8)
        np.testing.assert_array_equal(labels, want)
        assert 0 < np.count_nonzero(labels != 17) < labels.size

    def test_zero_rows(self):
        spec = slab_grid()
        inputs = head._splat_inputs(random_arrays(np.random.default_rng(0), 0, spec), spec, 3.0)
        density, scores, labels = splat_by_slabs(inputs, spec, 3)
        assert not density.any() and not scores.any()
        assert np.all(labels == 17)

    @pytest.mark.parametrize("x_dim", [7, 13, 29])
    def test_slab_count_invariance(self, x_dim):
        rng = np.random.default_rng(x_dim)
        spec = slab_grid(x_dim)
        arrays = random_arrays(rng, 50, spec)
        inputs = head._splat_inputs(arrays, spec, 3.0)
        one = splat_by_slabs(inputs, spec, 1)
        for slabs in (2, 3):
            for got, want in zip(splat_by_slabs(inputs, spec, slabs), one):
                np.testing.assert_array_equal(got, want)
        grid = splat_arrays(arrays, spec, 3.0, threads=1)
        np.testing.assert_array_equal(grid.scores, one[1])
        np.testing.assert_array_equal(grid.labels, one[2])


class TestSplatWorkers:
    def test_worker_count_clamped(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 4)
        assert head._worker_count(10**9, 256) == 4  # no process is started for the requested value
        assert head._worker_count(3, 256) == 3
        assert head._worker_count(4, 17) == 3  # one worker per tile column: 8 + 8 + 1 x-planes
        assert head._worker_count(4, 8) == 1
        assert head._worker_count(4, 1) == 1
        assert head._worker_count(0, 256) == 1
        monkeypatch.setattr(head, "_usable_cores", lambda: 1)
        assert head._worker_count(8, 256) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_payloads_larger_than_pipe_buffer_return_in_slab_order(self):
        # each child's pickled value is several times a 64 KiB pipe buffer,
        # and the last child's is the largest, so it blocks writing while the
        # parent still reads the first
        def fill(x_lo, x_hi):
            if x_lo == 2:
                return None  # a fill that only writes shared memory
            return bytes([x_lo, x_hi]) * (100_000 * (x_lo + 1))

        payloads = head._fork_slabs([0, 1, 2, 3, 4], fill)
        assert payloads == [bytes([0, 1]) * 100_000, bytes([1, 2]) * 200_000, None,
                            bytes([3, 4]) * 400_000]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_same_payloads_forked_and_in_process(self, monkeypatch):
        calls = []

        def fill(x_lo, x_hi):
            calls.append((x_lo, x_hi))  # the parent sees this only for a slab it ran itself
            return None if x_lo == 2 else bytes(range(x_lo, x_hi)) * 1000

        bounds = [0, 2, 3, 7]
        forked = head._fork_slabs(bounds, fill)
        assert calls == []
        assert forked == [bytes([0, 1]) * 1000, None, bytes([3, 4, 5, 6]) * 1000]
        monkeypatch.delattr(os, "fork")  # a platform without fork runs every slab in-process
        in_process = head._fork_slabs(bounds, fill)
        assert calls == [(0, 2), (2, 3), (3, 7)]
        assert in_process == forked and [type(value) for value in in_process] == [type(v) for v in forked]

    def test_one_slab_runs_in_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        def failing(x_lo, x_hi):
            raise RuntimeError("boom")

        monkeypatch.setattr(os, "fork", no_fork)
        calls = []
        assert head._fork_slabs([0, 13], lambda x_lo, x_hi: calls.append((x_lo, x_hi))) == [None]
        payloads = head._fork_slabs([0, 13], lambda x_lo, x_hi: bytearray(b"ab"))
        assert payloads == [b"ab"] and type(payloads[0]) is bytearray  # the fill's value, unconverted
        assert calls == [(0, 13)]
        with pytest.raises(RuntimeError, match="boom"):  # in-process, a failure propagates as is
            head._fork_slabs([0, 13], failing)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_values_returned_as_is_in_process_and_copied_forked(self, monkeypatch):
        made = {}

        def fill(x_lo, x_hi):
            made[x_lo] = [np.arange(x_lo, x_hi, dtype=np.float64), {"slab": (x_lo, x_hi)}]
            return made[x_lo]

        bounds = [0, 2, 3, 7]
        forked = head._fork_slabs(bounds, fill)
        assert made == {}  # made in the children only
        monkeypatch.delattr(os, "fork")
        in_process = head._fork_slabs(bounds, fill)
        assert [id(value) for value in in_process] == [id(made[x_lo]) for x_lo in bounds[:-1]]
        for copy, own in zip(forked, in_process):
            assert copy is not own
            np.testing.assert_array_equal(copy[0], own[0])
            assert copy[0].dtype == own[0].dtype and copy[1] == own[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_unpicklable_value_raises_worker_error(self):
        def fill(x_lo, x_hi):
            return (lambda: None) if x_lo == 3 else x_lo  # a lambda cannot be pickled

        with pytest.raises(SplatWorkerError, match=r"eval worker of x-slab \[3, 7\)") as info:
            head._fork_slabs([0, 2, 3, 7], fill, "eval")
        assert info.value.slab == (3, 7) and "pickle" in str(info.value)
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_fork_slabs_is_the_only_fork(self):
        # the one place that forks, so no caller keeps a second, in-process code path
        forks = []
        for path in sorted(os.listdir(os.path.dirname(gaussocc.__file__))):
            if not path.endswith(".py"):
                continue
            with open(os.path.join(os.path.dirname(gaussocc.__file__), path)) as source:
                tree = ast.parse(source.read())
            functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.fork", "fork"):
                    enclosing = [f.name for f in functions if node in ast.walk(f)]
                    forks.append((path, enclosing))
        assert forks == [("head.py", ["_fork_slabs"])]

    def test_slab_bounds_cut_between_tile_columns(self):
        assert head._slab_bounds(13, 2) == [0, 8, 13]
        assert head._slab_bounds(29, 3) == [0, 8, 16, 29]
        assert head._slab_bounds(256, 2) == [0, 128, 256]
        assert head._slab_bounds(7, 1) == [0, 7]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_forked_workers_bitwise_identical(self, monkeypatch, workers):
        # more workers than this machine may have cores: the shared mapping is written by each
        monkeypatch.setattr(head, "_usable_cores", lambda: 4)
        rng = np.random.default_rng(workers)
        spec = slab_grid(29)  # 4 tile columns, so 4 workers run
        arrays = random_arrays(rng, 50, spec)
        want = splat_arrays(arrays, spec, 3.0, threads=1)
        got = splat_arrays(arrays, spec, 3.0, threads=workers)
        np.testing.assert_array_equal(got.scores, want.scores)
        np.testing.assert_array_equal(got.labels, want.labels)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_workers_forked_after_threaded_blas(self, tmp_path):
        # In a fresh interpreter, a 2000^2 GEMM on two BLAS threads runs before the workers fork.  The
        # tile at the origin holds P > 868 primitives, so its (64 x P) @ (P x 18) products exceed
        # m n k = 10^6, where OpenBLAS 0.3.31 threads a product: a worker starts BLAS threads too.  A
        # deadlock fails the test through the timeout instead of blocking it.
        spec = slab_grid(29)
        arrays = random_arrays(np.random.default_rng(11), 2500, spec)
        inputs = head._splat_inputs(arrays, spec, 3.0)
        first_tile = np.all(inputs.lo <= np.minimum(inputs.hi, 7), axis=1)  # boxes meeting the tile at the origin
        assert np.count_nonzero(first_tile) > 868
        np.savez(tmp_path / "arrays.npz", **arrays)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from gaussocc import head\n"
            "from gaussocc.core import GridSpec\n"
            "head._usable_cores = lambda: 2\n"
            "a = np.random.default_rng(0).random((2000, 2000))\n"
            "a @ a\n"
            "arrays = dict(np.load(sys.argv[1]))\n"
            f"spec = GridSpec(origin=np.array({spec.origin.tolist()}), "
            f"voxel_size=np.array({spec.voxel_size.tolist()}), dims={spec.dims})\n"
            "want = head.splat_arrays(arrays, spec, 3.0, threads=1)\n"
            "got = head.splat_arrays(arrays, spec, 3.0, threads=2)\n"
            "assert np.array_equal(got.scores, want.scores) and np.array_equal(got.labels, want.labels)\n"
        )
        src = os.path.dirname(os.path.dirname(gaussocc.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "arrays.npz")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_one_worker_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        spec = slab_grid()
        arrays = random_arrays(np.random.default_rng(3), 20, spec)
        want = splat_arrays(arrays, spec, 3.0, threads=1)
        monkeypatch.setattr(head, "_usable_cores", lambda: 4)
        monkeypatch.delattr(os, "fork")  # a platform without fork runs the slabs in-process
        got = splat_arrays(arrays, spec, 3.0, threads=4)
        np.testing.assert_array_equal(got.scores, want.scores)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_failed_worker_raises_and_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        real = head._splat_slab

        def failing(x_lo, x_hi, *args):
            if x_lo > 0:
                raise RuntimeError("boom")
            real(x_lo, x_hi, *args)

        monkeypatch.setattr(head, "_splat_slab", failing)
        spec = slab_grid()
        arrays = random_arrays(np.random.default_rng(4), 20, spec)
        with pytest.raises(SplatWorkerError, match=r"x-slab \[8, 13\) failed: RuntimeError: boom") as info:
            splat_arrays(arrays, spec, 3.0, threads=2)
        assert info.value.slab == (8, 13)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_running_siblings_are_killed(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 3)

        def first_fails_rest_hang(x_lo, x_hi, *args):
            if x_lo == 0:
                raise ValueError("bad slab")
            time.sleep(60)

        monkeypatch.setattr(head, "_splat_slab", first_fails_rest_hang)
        spec = slab_grid(29)  # 4 tile columns for 3 workers
        arrays = random_arrays(np.random.default_rng(5), 5, spec)
        start = time.monotonic()
        with pytest.raises(SplatWorkerError, match=r"x-slab \[0, 8\) failed: ValueError: bad slab"):
            splat_arrays(arrays, spec, 3.0, threads=3)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_interrupted_wait_reaps_children(self, monkeypatch):
        monkeypatch.setattr(head, "_usable_cores", lambda: 2)
        monkeypatch.setattr(head, "_splat_slab", lambda *args: time.sleep(60))
        spec = slab_grid()
        arrays = random_arrays(np.random.default_rng(6), 5, spec)
        interrupt = threading.Timer(0.5, signal.pthread_kill, (threading.main_thread().ident, signal.SIGINT))
        start = time.monotonic()
        interrupt.start()
        try:
            with pytest.raises(SplatWorkerError, match=r"interrupted .* x-slab \[0, 8\)") as info:
                splat_arrays(arrays, spec, 3.0, threads=2)
        finally:
            interrupt.join(timeout=10)
        assert info.value.slab == (0, 8)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
