"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import functools
import time

import numpy as np

from gaussocc.core import GaussianPrimitive, GridSpec, SemanticOccupancyGrid, stack_primitives
from gaussocc.formats import dump_bundle, dump_grid, parse_bundle, parse_grid
from gaussocc.harness import oracle_dense_splat, oracle_sequential_scan
from gaussocc.head import (
    HeadParams,
    SsmParams,
    _inverse_permutation,
    raster_serialize,
    refine_features,
    selective_scan,
    splat_arrays,
    zoh_discretize,
)
from gaussocc.fusion import FusionParams, adaptive_fuse, cross_attend_pointwise
from gaussocc.metrics import class_iou, lovasz_per_class, mean_iou
from gaussocc.params import ParameterBundle
from gaussocc.pipeline import run_pipeline
from gaussocc.presets import resolve_config
from gaussocc.smoothing import bidirectional_cross_entropy, confidence_weights, tempered_softmax


def report(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def criterion(number, name):
    """Print the FAIL line when the wrapped test raises; PASS lines come from
    the explicit report() call, which carries measured numbers."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({name}): FAIL")
                raise

        return wrapper

    return decorate


def random_primitives(rng, count, box=4.0, c_sem=17):
    prims = []
    for _ in range(count):
        q = rng.normal(size=4)
        prims.append(
            GaussianPrimitive(
                centroid=rng.uniform(-box, box, size=3),
                log_scale=np.log(rng.uniform(0.3, 1.4, size=3)),
                rotation=q / np.linalg.norm(q),
                opacity_logit=float(rng.normal()),
                semantic_logits=rng.normal(size=c_sem),
            )
        )
    return prims


@criterion(1, "splat-oracle equivalence")
def test_criterion_01_splat_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(100):
        dims = tuple(int(d) for d in rng.integers(4, 33, size=3))
        spec = GridSpec(
            origin=rng.uniform(-6, -4, size=3),
            voxel_size=rng.uniform(0.3, 0.6, size=3),
            dims=dims,
        )
        prims = random_primitives(rng, int(rng.integers(1, 65)))
        kernel = splat_arrays(stack_primitives(prims), spec, 6.0, threads=1)
        oracle = oracle_dense_splat(prims, spec)
        np.testing.assert_allclose(kernel.scores, oracle.scores, atol=1e-6)
        np.testing.assert_array_equal(kernel.labels, oracle.labels)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"splat equivalence took {elapsed:.1f}s"
    report(1, f"splat-oracle equivalence, 100 instances in {elapsed:.1f}s")


@criterion(2, "scan-oracle equivalence")
def test_criterion_02_scan_oracle_equivalence():
    rng = np.random.default_rng(1002)
    cases = [(4096, 128, 16), (257, 32, 8), (1023, 64, 16), (33, 128, 16)]
    for t, f, n in cases:
        params = SsmParams(
            a=-rng.uniform(0.5, float(n), size=(f, n)),
            w_b=rng.normal(size=(f, n)) / np.sqrt(f),
            w_c=rng.normal(size=(f, n)) / np.sqrt(f),
            w_delta=rng.normal(size=(f, f)) / np.sqrt(f),
            b_delta=np.full(f, -4.6),
            d_skip=rng.normal(size=f),
        )
        tokens = rng.normal(size=(t, f))
        fast = selective_scan(tokens, params)
        slow = oracle_sequential_scan(tokens, params)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)
    report(2, "selective scan matches sequential oracle up to T=4096, F=128, N=16")


@criterion(3, "Lovasz vertex property")
def test_criterion_03_lovasz_vertex_property():
    for n in range(1, 9):
        for truth_bits in range(2**n):
            truth = np.array([(truth_bits >> i) & 1 for i in range(n)])
            for pred_bits in range(2**n):
                pred = np.array([(pred_bits >> i) & 1 for i in range(n)])
                probs = np.zeros((n, 2))
                probs[np.arange(n), pred] = 1.0
                losses = lovasz_per_class(probs, truth, excluded_class=None)
                for c, loss in losses.items():
                    tp = int(np.sum((pred == c) & (truth == c)))
                    fp = int(np.sum((pred == c) & (truth != c)))
                    fn = int(np.sum((pred != c) & (truth == c)))
                    expected = 1.0 - tp / (tp + fp + fn)
                    assert abs(loss - expected) <= 1e-12
    report(3, "Lovasz equals 1 - IoU on all binary grids up to 8 voxels")


@criterion(4, "metric correctness")
def test_criterion_04_metric_correctness():
    def grid(labels):
        labels = np.asarray(labels, dtype=np.uint8).reshape(-1, 1, 1)
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=labels.shape)
        return SemanticOccupancyGrid(spec=spec, labels=labels)

    # (pred, truth, class -> (tp, fp, fn, iou)) hand-enumerated
    cases = [
        ([1, 1, 1, 0], [1, 1, 0, 1], {1: (2, 1, 1, 0.5)}),
        ([0, 0, 0, 0], [0, 0, 0, 0], {0: (4, 0, 0, 1.0)}),
        ([2, 2, 0, 0], [2, 0, 2, 0], {2: (1, 1, 1, 1.0 / 3.0), 0: (1, 1, 1, 1.0 / 3.0)}),
        ([1, 0, 1, 0, 1], [1, 1, 1, 1, 1], {1: (3, 0, 2, 0.6)}),
        ([3, 3, 3], [0, 1, 2], {3: (0, 3, 0, 0.0), 0: (0, 0, 1, 0.0)}),
    ]
    for pred, truth, expectations in cases:
        c_total = int(max(max(pred), max(truth))) + 1
        rep = class_iou(grid(pred), grid(truth), c_total)
        for cls, (tp, fp, fn, iou) in expectations.items():
            entry = rep.per_class[cls]
            assert (entry.tp, entry.fp, entry.fn) == (tp, fp, fn)
            assert abs(entry.iou - iou) <= 1e-12
    # the mean over defined IoUs (1.0, 0.0) is 0.5
    rep = class_iou(grid([0, 0, 1, 2]), grid([0, 0, 2, 1]), 4)
    assert abs(rep.per_class[0].iou - 1.0) <= 1e-12
    assert abs(mean_iou(rep, include_empty=True) - (1.0 + 0.0 + 0.0) / 3.0) <= 1e-12
    report(4, "class_iou / mean_iou match hand-enumerated confusion tables")


@criterion(5, "ZOH correctness")
def test_criterion_05_zoh_correctness():
    abar, bbar = zoh_discretize(-1.0, 1.0, np.log(2.0))
    assert abs(abar - 0.5) <= 1e-12
    assert abs(bbar - 0.5) <= 1e-12
    # series fallback against the exact (expm1) evaluation across the band
    mags = np.logspace(-8, -3, 400)
    for sign in (-1.0, 1.0):
        z = sign * mags
        series = 1.0 + z / 2.0 + z**2 / 6.0 + z**3 / 24.0
        exact = np.expm1(z) / z
        np.testing.assert_allclose(series, exact, rtol=1e-10)
    report(5, "ZOH hand values at 1e-12; series matches exact form at 1e-10")


@criterion(6, "entropy-weight laws")
def test_criterion_06_entropy_weight_laws():
    rng = np.random.default_rng(1006)
    floor = 1e-6
    for _ in range(1000):
        h_cl = float(rng.uniform(0, 40))
        h_lc = float(rng.uniform(0, 40))
        w_cam, w_lidar = confidence_weights(np.float64(h_cl), np.float64(h_lc), floor)
        s = np.exp(-np.float64(h_lc)) + np.exp(-np.float64(h_cl))
        assert w_cam + w_lidar == s / (s + floor)
        assert w_cam + w_lidar < 1.0
    for _ in range(1000):
        logits = rng.normal(scale=3.0, size=8)
        p = tempered_softmax(logits, 1.0)
        h_cl, h_lc = bidirectional_cross_entropy(p, p, floor)
        w_cam, w_lidar = confidence_weights(h_cl, h_lc, floor)
        assert w_cam == w_lidar
    for _ in range(1000):
        logits = rng.normal(scale=4.0, size=6)
        shift = float(rng.normal(scale=20.0))
        np.testing.assert_allclose(
            tempered_softmax(logits, 1.5), tempered_softmax(logits + shift, 1.5), atol=1e-9
        )
    report(6, "entropy weight identity exact; P=Q symmetry bitwise; softmax shift-invariant")


@criterion(7, "fusion convexity and gate laws")
def test_criterion_07_fusion_laws(small_bundle, small_model):
    rng = np.random.default_rng(1007)
    params = FusionParams.from_bundle(small_bundle)
    f = small_model.feature_width
    zero_value = FusionParams(**{
        **params.__dict__,
        "wv_c": np.zeros((f, f)),
        "wv_l": np.zeros((f, f)),
    })
    for _ in range(1000):
        f_l, f_c = rng.normal(scale=2.0, size=(2, f))
        out = adaptive_fuse(f_l, f_c, params)
        lo = np.minimum(out.h_l, out.h_c)
        hi = np.maximum(out.h_l, out.h_c)
        pad = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(out.h_fused >= lo - pad) and np.all(out.h_fused <= hi + pad)
        assert np.all(np.abs(out.f_final) <= np.abs(out.h_fused))
        h_l, h_c = cross_attend_pointwise(f_l, f_c, zero_value)
        np.testing.assert_array_equal(h_l, f_l)
        np.testing.assert_array_equal(h_c, f_c)
    report(7, "fusion hull/attenuation laws and zero-value identity over 1000 trials")


@criterion(8, "raster/permutation laws")
def test_criterion_08_raster_permutation_laws(small_bundle, small_model, small_grid):
    order = raster_serialize(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]), omega=10.0)
    np.testing.assert_array_equal(order, [2, 1, 0])
    rng = np.random.default_rng(1008)
    feats = rng.normal(size=(64, 5))
    coords = rng.uniform(-4, 4, size=(64, 2))
    ro = raster_serialize(coords, omega=64.0)
    np.testing.assert_array_equal(feats[ro][_inverse_permutation(ro)], feats)

    params = HeadParams.from_bundle(small_bundle, small_model, small_grid)
    for _ in range(100):
        n = int(rng.integers(6, 24))
        centroids = rng.uniform(-6, 6, size=(n, 3))
        features = rng.normal(size=(n, small_model.feature_width))
        base_c, base_f = refine_features(centroids, features, params)
        perm = rng.permutation(n)
        out_c, out_f = refine_features(centroids[perm], features[perm], params)
        np.testing.assert_array_equal(out_c, base_c[perm])
        np.testing.assert_array_equal(out_f, base_f[perm])
    report(8, "raster hand order, inverse identity, head equivariance over 100 trials")


@criterion(9, "end-to-end determinism")
def test_criterion_09_end_to_end_determinism(tmp_path, monkeypatch):
    digests = set()
    for threads in ("1", "4"):
        monkeypatch.setenv("GOC_THREADS", threads)
        for run in range(2):
            cfg = resolve_config({
                "preset": "synthetic",
                "gaussian_count": 192,
                "seed": 21,
                "out": str(tmp_path / f"t{threads}_r{run}"),
            })
            result = run_pipeline(cfg)
            digests.add(result.manifest["outputs"]["grid_digest"])
    assert len(digests) == 1
    report(9, "bit-identical grid digests across repeat runs and GOC_THREADS in {1, 4}")


@criterion(10, "desk-scale throughput")
def test_criterion_10_desk_scale_throughput(tmp_path, monkeypatch):
    monkeypatch.setenv("GOC_THREADS", "8")
    cfg = resolve_config({
        "preset": "synthetic",
        "gaussian_count": 25600,
        "grid_dims": (256, 256, 32),
        "grid_origin": (-51.2, -51.2, -2.0),
        "grid_voxel": (0.4, 0.4, 0.25),
        "plane_shape": (128, 128),
        "camera_shape": (64, 96),
        "truncation_sigmas": 3.0,
        "seed": 33,
        "out": str(tmp_path / "throughput"),
    })
    start = time.perf_counter()
    result = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
    timings = result.manifest["stage_timings_s"]
    for stage in ("scene", "weights", "anchors", "lifting", "smoothing", "fusion", "head", "splat", "eval", "emit"):
        assert stage in timings
    report(10, f"25600 anchors onto 256x256x32 in {elapsed:.1f}s with stage timings recorded")


@criterion(11, "format laws")
def test_criterion_11_format_round_trips():
    rng = np.random.default_rng(1011)
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        spec = GridSpec(
            origin=rng.uniform(-20, 20, size=3).astype(np.float32),
            voxel_size=rng.uniform(0.05, 1.0, size=3).astype(np.float32),
            dims=dims,
        )
        c_total = int(rng.integers(1, 32))
        labels = rng.integers(0, c_total, size=dims).astype(np.uint8)
        grid = SemanticOccupancyGrid(spec=spec, labels=labels)
        again = parse_grid(dump_grid(grid, class_count=c_total))
        np.testing.assert_array_equal(again.labels, grid.labels)
        np.testing.assert_array_equal(again.spec.origin, grid.spec.origin)
        np.testing.assert_array_equal(again.spec.voxel_size, grid.spec.voxel_size)
        assert again.spec.dims == grid.spec.dims
    for _ in range(200):
        entries = {}
        for i in range(int(rng.integers(1, 6))):
            rank = int(rng.integers(0, 5))
            shape = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            entries[f"path.{i}"] = rng.normal(size=shape).astype(np.float32)
        bundle = ParameterBundle(entries)
        again = parse_bundle(dump_bundle(bundle))
        assert again.paths() == bundle.paths()
        for path in bundle.paths():
            np.testing.assert_array_equal(again.raw(path), bundle.raw(path))
    report(11, "GOC1 and weight-bundle round-trips are identities, 200 trials each")
