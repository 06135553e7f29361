"""Child process of the benchmark: ``setup`` writes one workload's inputs,
``run`` loads them and calls ``gaussocc.pipeline.run_pipeline``.

Each sub-command writes one JSON result file and prints nothing. ``run``
never generates a workload's inputs, so its high-water RSS is that of
loading them and running the pipeline.

    python3 perfbench/worker.py setup --workload small --seed 1 \\
        --scene s.gscn --weights w.gocw --result r.json [--trace]
    python3 perfbench/worker.py run --workload small --seed 1 --dir D \\
        --seconds 10 --result r.json [--trace]
"""

import time

STARTED = time.perf_counter()  # setup_s includes importing the package

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from gaussocc import formats, harness, head, params, pipeline, presets  # noqa: E402
from gaussocc.core import GaussianPrimitive, make_covariance  # noqa: E402

from tracer import Tracer, maxrss_mb  # noqa: E402
from workloads import WARMUP, WEIGHTS_SEED, WORKLOADS  # noqa: E402

SPLAT_ORACLE_ATOL = 1e-6  # criterion 1
SCAN_ORACLE_RTOL, SCAN_ORACLE_ATOL = 1e-9, 1e-12  # criterion 2
CAPTURED = ("head.splat_arrays", "head.selective_scan", "metrics.lovasz_softmax")


def _overrides(name: str) -> dict:
    return dict(WARMUP["overrides"] if name == "warmup" else WORKLOADS[name]["overrides"])


def cmd_setup(args) -> dict:
    """What ``gaussocc synth`` and ``gaussocc weights-init`` do for one workload."""
    tracer = Tracer()
    with tracer if args.trace else contextlib.nullcontext():
        config = presets.resolve_config({**_overrides(args.workload), "seed": args.seed})
        scene = harness.generate_scene(config.scene_config, pipeline.derive_seed(config.seed, "scene"))
        harness.save_scene(scene, args.scene)
        bundle = params.build_parameter_bundle(config.model, pipeline.derive_seed(WEIGHTS_SEED, "weights"))
        formats.save_bundle(bundle, args.weights)
    return {"setup_s": time.perf_counter() - STARTED, "layers": tracer.summary()}


# ---------------------------------------------------------------------------
# run


def _config(name: str, seed: int, work: Path, stem: str):
    return presets.resolve_config({
        **_overrides(name),
        "seed": seed,
        "scene": str(work / f"{stem}.gscn"),
        "weights": str(work / f"{stem}.gocw"),
        "out": str(work / f"{stem}-out"),
    })


def _read_outputs(out_dir: Path) -> dict:
    """Digest of the emitted grid file and the scores written to metrics.txt."""
    scores = {}
    for line in (out_dir / "metrics.txt").read_text().splitlines():
        key, _, value = line.partition("\t")
        if key in ("mIoU", "loss.ce", "loss.lovasz"):
            try:
                scores[key] = float(value)
            except ValueError:  # "undefined"
                scores[key] = None
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {
        "digest": hashlib.sha256((out_dir / "pred_grid.goc1").read_bytes()).hexdigest(),
        "miou": scores.get("mIoU"),
        "ce": scores.get("loss.ce"),
        "lovasz": scores.get("loss.lovasz"),
        "config_hash": manifest.get("config_hash"),
    }


def _call(config, kind: str) -> dict:
    start = time.perf_counter()
    try:
        pipeline.run_pipeline(config)
    except Exception as exc:  # a raising run is counted as failed, not fatal
        return {"kind": kind, "s": time.perf_counter() - start, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    return {"kind": kind, "s": elapsed, "error": None, **_read_outputs(Path(config.out_dir))}


def _traced_call(config, kind: str):
    """One instrumented call; returns the sample and the tracer holding its spans."""
    tracer = Tracer(CAPTURED)
    with tracer:
        sample = _call(config, kind)
    return sample, tracer


def _box_pairs(arrays: dict, spec, sigmas: float) -> int:
    """(primitive, voxel) pairs whose voxel center lies in the primitive's
    axis-aligned box of +-sigmas standard deviations, clipped to the grid."""
    sigma = make_covariance(np.exp(arrays["log_scale"]), arrays["rotation"])
    half = sigmas * np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
    origin, voxel, dims = np.asarray(spec.origin), np.asarray(spec.voxel_size), np.asarray(spec.dims)
    lo = np.clip(np.ceil((arrays["centroid"] - half - origin) / voxel - 0.5), 0, dims)
    hi = np.clip(np.floor((arrays["centroid"] + half - origin) / voxel - 0.5), -1, dims - 1)
    return int(np.prod(np.maximum(hi - lo + 1, 0), axis=1).sum())


def _work_counts(captures: dict) -> dict:
    """Work counts computed from captured arguments and outputs, not timed."""
    counts = {}
    scans = [args for args, _ in captures.get("head.selective_scan", [])]
    counts["head.selective_scan.tokens"] = sum(a["tokens"].shape[0] for a in scans)
    counts["head.selective_scan.state_updates"] = sum(
        a["tokens"].shape[0] * a["tokens"].shape[1] * a["params"].a.shape[1] for a in scans
    )
    if "head.splat_arrays" in captures:
        args, grid = captures["head.splat_arrays"][0]
        counts["head.splat_arrays.box_pairs"] = _box_pairs(
            args["arrays"], args["spec"], args["truncation_radius_sigmas"]
        )
        counts["head.splat_arrays.voxels_touched"] = int(np.count_nonzero(np.any(grid.scores != 0, axis=-1)))
    if "metrics.lovasz_softmax" in captures:
        args, _ = captures["metrics.lovasz_softmax"][0]
        probs, labels = np.asarray(args["probs"]), np.asarray(args["labels"])
        predicted = np.argmax(probs.reshape(-1, probs.shape[-1]), axis=-1)
        scored = set(np.unique(labels).tolist()) | set(np.unique(predicted).tolist())
        scored.discard(args["excluded_class"])
        counts["metrics.lovasz_softmax.sorted_elements"] = labels.size * len(scored)
    return counts


def _oracles(captures: dict) -> dict:
    """Criterion 1 and 2 spot checks on the first captured splat and scan call."""
    out = {}
    if "head.splat_arrays" in captures:
        args, grid = captures["head.splat_arrays"][0]
        arrays = args["arrays"]
        primitives = [
            GaussianPrimitive(
                centroid=arrays["centroid"][i],
                log_scale=arrays["log_scale"][i],
                rotation=arrays["rotation"][i],
                opacity_logit=float(arrays["opacity_logit"][i]),
                semantic_logits=arrays["semantic_logits"][i],
            )
            for i in range(len(arrays["centroid"]))
        ]
        dense = harness.oracle_dense_splat(primitives, args["spec"], occupancy_threshold=args["occupancy_threshold"])
        err = float(np.max(np.abs(grid.scores - dense.scores)))
        labels_equal = bool(np.array_equal(grid.labels, dense.labels))
        out["splat"] = {"max_abs_err": err, "labels_equal": labels_equal,
                        "ok": err <= SPLAT_ORACLE_ATOL and labels_equal}
    if "head.selective_scan" in captures:
        args, fast = captures["head.selective_scan"][0]
        slow = harness.oracle_sequential_scan(args["tokens"], args["params"])
        rel = np.abs(fast - slow) / (np.abs(slow) + SCAN_ORACLE_ATOL / SCAN_ORACLE_RTOL)
        out["scan"] = {"shape": list(args["tokens"].shape), "max_rel_err": float(np.max(rel)),
                       "ok": bool(np.allclose(fast, slow, rtol=SCAN_ORACLE_RTOL, atol=SCAN_ORACLE_ATOL))}
    return out


def _grid_hash(grid) -> str:
    digest = hashlib.sha256(grid.labels.tobytes())
    digest.update(grid.scores.tobytes())
    return digest.hexdigest()


def _blas_threads():
    """OpenBLAS thread count, when numpy's bundled OpenBLAS can be asked."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": _blas_threads()}


def cmd_run(args) -> dict:
    work = Path(args.dir)
    config = _config(args.workload, args.seed, work, "inputs")
    _call(_config("warmup", WARMUP["seed"], work, "warmup"), "warmup")
    oracles = WORKLOADS[args.workload]["oracles"]
    samples: list[dict] = []
    out: dict = {"env": _environment(), "samples": samples}

    if not args.trace:
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < args.seconds:
            samples.append(_call(config, "timed"))
        out["peak_rss_mb"] = maxrss_mb()
        if oracles:
            sample, tracer = _traced_call(config, "probe")
            samples.append(sample)
            if sample["error"] is None:
                out["oracles"] = _oracles(tracer.captures)
        return out

    sample, tracer = _traced_call(config, "traced")
    samples.append(sample)
    if sample["error"] is not None:
        return out
    out["layers"] = tracer.summary()
    out["stats"] = _work_counts(tracer.captures)
    if oracles:
        out["oracles"] = _oracles(tracer.captures)
    splat = tracer.captures.get("head.splat_arrays")
    splat_args, threaded_hash = (splat[0][0], _grid_hash(splat[0][1])) if splat else (None, None)
    del tracer, splat  # release the captured score volumes before the next call

    samples.append(_call(config, "untraced"))
    if samples[-1]["error"] is None:
        out["stats"]["trace.overhead_frac"] = samples[0]["s"] / samples[-1]["s"] - 1.0
    if splat_args is not None:
        kwargs = {k: v for k, v in splat_args.items() if k != "threads"}
        start = time.perf_counter()
        single = head.splat_arrays(**kwargs, threads=1)
        out["stats"]["head.splat_arrays.s_1thread"] = time.perf_counter() - start
        out["splat_threads"] = {"threads": splat_args["threads"], "identical": _grid_hash(single) == threaded_hash}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--scene", required=True)
    p_setup.add_argument("--weights", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--dir", required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    for p in (p_setup, p_run):
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["warmup"])
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--result", required=True)
        p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.command == "setup" else cmd_run(args)
    Path(args.result).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
