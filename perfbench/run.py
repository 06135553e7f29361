"""gaussocc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload small --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark writes the workload's inputs
(``setup``), then times ``gaussocc.pipeline.run_pipeline`` on them in a fresh
process that only loads and runs (``run``); see worker.py. With ``--trace 0``
it reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
wraps the package's public functions and reports the per-layer metrics.

Every line before the last describes the run (environment, digest, mIoU,
samples, every span, oracle checks); the last line is the result object.
Exit code 0 means a result was printed, even one with failed operations;
any other code means the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of this many fresh set-up processes
DEADLINE_S = 170.0  # every child is killed before the run exceeds this
NOTES = (
    "openocc is not a workload: one run takes about 157 s and peaks at about 5.2 GB "
    "on a 2-core, 7 GB machine, too long to repeat for every commit.",
    "Span names use the module that defines the function: pipeline.load_scene, "
    "pipeline.init_anchors and pipeline.stack_primitives are reported as "
    "harness.load_scene, core.init_anchors and core.stack_primitives.",
    "Counts (calls, tokens, state_updates, box_pairs, voxels_touched, "
    "sorted_elements) are computed from arguments and outputs and repeat exactly.",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(args: list[str], deadline: float, env: dict) -> None:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(args[:2]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, timeout=timeout, stdout=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _setup(args, work: Path, rel: Path, deadline: float, env: dict) -> dict:
    """Write the workload's inputs; time fresh set-up processes (median)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    paths = ["--scene", str(rel / "inputs.gscn"), "--weights", str(rel / "inputs.gocw")]
    times, hashes, layers = [], [], {}
    for i in range(1 if args.trace else SETUP_REPEATS):
        result = work / f"setup{i}.json"
        _child(["setup", *common, *paths, "--result", str(rel / result.name),
                *(["--trace"] if args.trace else [])], deadline, env)
        record = json.loads(result.read_text())
        times.append(record["setup_s"])
        layers = record["layers"]
        hashes.append((_sha256(work / "inputs.gscn"), _sha256(work / "inputs.gocw")))
    _child(["setup", "--workload", "warmup", "--seed", "0", "--scene", str(rel / "warmup.gscn"),
            "--weights", str(rel / "warmup.gocw"), "--result", str(rel / "warmup.json")], deadline, env)
    return {"times": times, "hashes": hashes, "layers": layers}


def _check_samples(samples: list[dict]) -> list[str]:
    """One entry per failed sample: raised, non-finite score, or a digest
    that differs from the first successful sample's."""
    failures = []
    digest = next((s["digest"] for s in samples if s["error"] is None), None)
    for i, s in enumerate(samples):
        if s["error"] is not None:
            failures.append(f"sample {i} ({s['kind']}) raised {s['error']}")
            continue
        bad = [k for k in ("miou", "ce", "lovasz") if s[k] is None or not math.isfinite(s[k])]
        if bad:
            failures.append(f"sample {i} ({s['kind']}) has non-finite {', '.join(bad)}")
        elif s["digest"] != digest:
            failures.append(f"sample {i} ({s['kind']}) grid digest {s['digest'][:16]} != {digest[:16]}")
    return failures


def _per_layer(setup_layers: dict, run: dict) -> dict:
    """Every available per-layer value by metric name."""
    values = {}
    for layers in (setup_layers, run.get("layers", {})):
        for name, entry in layers.items():
            for stat, value in entry.items():
                values[f"{name}.{stat}"] = value
    top = run.get("layers", {}).get("pipeline.run_pipeline")
    if top:
        values["pipeline.run_pipeline.child_frac"] = top["child_s"] / top["s"]
    values.update(run.get("stats", {}))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return _bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def _bench(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gaussocc" / "__init__.py").is_file() or not spec_path.is_file():
        raise BenchError("run from a checkout that holds BENCHMARK.json and src/gaussocc")
    spec = json.loads(spec_path.read_text())

    threads = len(os.sched_getaffinity(0))
    env = {**os.environ, "GOC_THREADS": str(threads)}
    rel = Path(".perfbench-work") / f"{args.workload}-{args.seed}"
    work = ROOT / rel
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = _setup(args, work, rel, deadline, env)
        _child(["run", "--workload", args.workload, "--seed", str(args.seed), "--dir", str(rel),
                "--seconds", str(args.seconds), "--result", str(rel / "run.json"),
                *(["--trace"] if args.trace else [])], deadline, env)
        run = json.loads((work / "run.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failures = [f"setup {i} wrote different inputs than setup 0"
                for i, h in enumerate(setup["hashes"]) if h != setup["hashes"][0]]
    samples = run["samples"]
    failures += _check_samples(samples)
    oracles = run.get("oracles", {})
    expected_oracles = ("splat", "scan") if WORKLOADS[args.workload]["oracles"] else ()
    failures += [f"oracle {name} check failed or did not run: {oracles.get(name)}"
                 for name in expected_oracles if not oracles.get(name, {}).get("ok")]
    splat_threads = run.get("splat_threads")
    if splat_threads and not splat_threads["identical"]:
        failures.append("splat with 1 thread differs from the pipeline's splat")
    attempted = len(setup["times"]) + len(samples) + len(expected_oracles) + (1 if splat_threads else 0)

    timed = [s["s"] for s in samples if s["kind"] == "timed" and s["error"] is None]
    first_ok = next((s for s in samples if s["error"] is None), {})
    if args.trace:
        available = _per_layer(setup["layers"], run)
        wanted = spec["per_layer"]
    else:
        available = {
            "run_s": statistics.median(timed) if timed else None,
            "setup_s": statistics.median(setup["times"]),
            "peak_rss_mb": run.get("peak_rss_mb"),
        }
        wanted = spec["end_to_end"]
    metrics, absent = {}, []
    for entry in wanted:
        value = available.get(entry["name"])
        if value is None:
            absent.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    detail = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "trace": args.trace,
        "config_hash": first_ok.get("config_hash"),
        "grid_digest": first_ok.get("digest"),
        "miou": first_ok.get("miou"),
        "ce": first_ok.get("ce"),
        "lovasz": first_ok.get("lovasz"),
        "samples": {"run_s": len(timed), "setup_s": len(setup["times"])},
        "run_s_samples": [(s["kind"], round(s["s"], 6)) for s in samples],
        "setup_s_samples": [round(t, 6) for t in setup["times"]],
        "oracles": oracles,
        "splat_threads": splat_threads,
        "absent": absent,
        "failures": failures,
        "env": {**run["env"], "cpu_count": os.cpu_count(), "usable_cpus": threads,
                "GOC_THREADS": env["GOC_THREADS"], "git_commit": _git_commit()},
        "notes": NOTES,
    }
    if args.trace:
        detail["setup_spans"] = setup["layers"]
        detail["run_spans"] = run.get("layers", {})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
