"""Command line entry points: run, synth, eval, sweep, weights-init."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats, metrics
from .errors import GaussOccError
from .harness import generate_scene, save_scene
from .params import build_parameter_bundle
from .pipeline import derive_seed, run_pipeline
from .presets import KNOWN_KEYS, PRESET_NAMES, parse_config_file, resolve_config


def _add_run_options(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", choices=PRESET_NAMES)
    parser.add_argument("--gaussians", type=int, dest="gaussian_count")
    parser.add_argument("--fusion", dest="fusion_mode", choices=("addition", "concatenation", "adaptive"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--scene", help="scene file produced by `gaussocc synth`")
    parser.add_argument("--weights", help="GOCW weight bundle; seeded bundle when omitted")
    parser.add_argument("--smoothing", choices=("on", "off"))
    parser.add_argument("--blocks", type=int, dest="head_blocks")
    parser.add_argument("--truncation", type=float, dest="truncation_sigmas")


def _resolve(args: argparse.Namespace, extra: dict | None = None):
    """``--config`` keys, overridden by the flags that were given, then by ``extra``.

    Every run option's argparse ``dest`` is its config key, so the flags are
    the parsed arguments whose names are known keys.
    """
    file_overrides = parse_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if key in KNOWN_KEYS}
    flags.update(extra or {})
    return resolve_config(overrides=flags, file_overrides=file_overrides)


def _cmd_run(args) -> int:
    result = run_pipeline(_resolve(args))
    print(f"wrote {result.grid_path}")
    print(f"wrote {result.metrics_path}")
    print(f"manifest {result.manifest_path} digest {result.manifest['outputs']['grid_digest']}")
    return 0


def _cmd_synth(args) -> int:
    config = _resolve(args)
    scene = generate_scene(config.scene_config, derive_seed(config.seed, "scene"))
    out = Path(args.scene_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_scene(scene, out)
    print(f"wrote {out} hash {scene.scene_hash()}")
    return 0


def _cmd_eval(args) -> int:
    pred = formats.load_grid(args.pred)
    truth = formats.load_grid(args.truth)
    config = _resolve(args)
    report = metrics.class_iou(pred, truth, config.taxonomy.c_total)
    text = metrics.format_metrics(report, config.taxonomy)
    if args.metrics_out:
        Path(args.metrics_out).write_text(text)
        print(f"wrote {args.metrics_out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve(args)
    counts = [int(v) for v in args.sweep_gaussians.split(",")] if args.sweep_gaussians else [config.gaussian_count]
    modes = args.sweep_fusion.split(",") if args.sweep_fusion else [config.fusion_mode]
    base_out = Path(config.out_dir)
    for count in counts:
        for mode in modes:
            tag = f"g{count}_{mode}"
            result = run_pipeline(
                _resolve(args, extra={"gaussian_count": count, "fusion_mode": mode, "out": str(base_out / tag)})
            )
            print(f"{tag}: {result.metrics_path}")
    return 0


def _cmd_weights_init(args) -> int:
    config = _resolve(args)
    bundle = build_parameter_bundle(config.model, derive_seed(config.seed, "weights"))
    out = Path(args.weights_out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.save_bundle(bundle, out)
    print(f"wrote {out} ({len(bundle)} tensors)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaussocc", description="Gaussian-primitive semantic occupancy pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline and emit grid/metrics/manifest")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene file")
    _add_run_options(p_synth)
    p_synth.add_argument("--scene-out", required=True, help="output scene path")
    p_synth.set_defaults(func=_cmd_synth)

    p_eval = sub.add_parser("eval", help="grid-vs-grid metrics")
    _add_run_options(p_eval)
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--metrics-out")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="gaussian-count and fusion-mode grids")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--sweep-gaussians", help="comma-separated anchor counts")
    p_sweep.add_argument("--sweep-fusion", help="comma-separated fusion modes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_weights = sub.add_parser("weights-init", help="emit a seeded weight bundle")
    _add_run_options(p_weights)
    p_weights.add_argument("--weights-out", required=True)
    p_weights.set_defaults(func=_cmd_weights_init)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GaussOccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
