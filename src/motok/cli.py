"""Command-line surface: synth, train, tokenize, detokenize, eval.

Exit codes are a stable contract: 0 success, 2 I/O, 3 config/data,
4 numeric abort, 5 corrupt artifact. Every command writes one manifest JSON
beside its outputs so runs are replayable. MOTOK_SEED overrides any --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import heatmap as hm
from . import metrics as mx
from . import model as mdl
from . import quantizer as qz
from . import tensorcore as tc
from . import trainer as tr
from .errors import (ArgumentError, ConfigError, DataError, ShapeError,
                     StateError, TrainingError)

CONFIG_SCHEMA = 1


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("MOTOK_SEED")
    if not env:
        return int(seed)
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"MOTOK_SEED must be an integer, got {env!r}") from exc


def write_manifest(path: Path, command: str, config: dict, seed: int,
                   inputs: list, outputs: list, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
    }
    tc.write_text(path, json.dumps(manifest, indent=2, sort_keys=True))


def load_config(path) -> tuple:
    """Versioned JSON config -> (ModelConfig, TrainerConfig, window_stride)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: a config must be a JSON object")
    if raw.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"{path}: expected schema {CONFIG_SCHEMA}, got {raw.get('schema')}")
    try:  # a section that is not an object raises TypeError too
        model_cfg = mdl.ModelConfig(**raw.get("model", {}))
        trainer_cfg = tr.TrainerConfig(**raw.get("trainer", {}))
    except TypeError as exc:
        raise ConfigError(f"{path}: unknown config field: {exc}") from exc
    stride = raw.get("window_stride", 90)
    mdl.check_number("window_stride", stride, 1, integer=True)
    return model_cfg, trainer_cfg, stride


def _load_items(path, config: mdl.ModelConfig, stride: int) -> list:
    """Keypoints (.jsonl) -> keypoint windows; heatmap tensor (.mht) -> [volume].

    The items are unrendered; ``tr.prepare_window`` turns each into model input.
    """
    p = Path(path)
    if p.suffix == ".mht":
        vol = tc.load_tensor(p)  # frame-major [F,C,H,W]
        if not np.isfinite(vol).all():
            raise DataError(f"{path}: heatmap values must be finite")
        return [vol]
    length = config.input_extents[0]
    windows = hm.window(hm.load_keypoints(p), length, stride)
    if not windows:
        raise ArgumentError(f"{path}: sequence too short for {length}-frame windows")
    return windows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    spec = tr.SyntheticMotionSpec(joints=args.joints, frames=args.frames,
                                  family=args.family, noise=args.noise,
                                  seed=seed, dims=args.dims,
                                  width=args.width, height=args.height,
                                  depth=args.depth)
    kp = tr.synth_motion(spec)
    out = Path(args.out)
    hm.save_keypoints(out, kp)
    write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "synth",
                   asdict(spec), seed, [], [out], started)
    print(f"wrote {kp.frames} frames x {kp.joints} joints ({kp.dims}D) to {out}")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    model_cfg, trainer_cfg, stride = load_config(args.config)
    seed = _resolve_seed(args.seed)
    items = _load_items(args.data, model_cfg, stride)
    out_dir = Path(args.out)
    state, opt_buffers = mdl.load_checkpoint(args.resume) if args.resume else (None, None)
    result = tr.train(model_cfg, items, args.steps, seed, trainer_cfg,
                      state=state, opt_buffers=opt_buffers, out_dir=out_dir)
    final = out_dir / "ckpt_final.mck"
    write_manifest(out_dir / "manifest.json", "train",
                   {"model": asdict(model_cfg), "trainer": asdict(trainer_cfg),
                    "window_stride": stride, "steps": args.steps},
                   seed, [args.config, args.data], [final, out_dir / "loss_log.jsonl"],
                   started)
    print(f"trained to step {result.state.step}; checkpoint at {final}")
    return 0


def cmd_tokenize(args) -> int:
    started = time.time()
    state, _ = mdl.load_checkpoint(args.ckpt)
    config = state.config
    items = _load_items(args.data, config, args.stride)
    out = Path(args.out)
    outputs = []
    for i, item in enumerate(items):
        _, grid, _ = mdl.encode(state, tr.prepare_window(config, item)[None])
        dest = out if len(items) == 1 else \
            out.with_name(f"{out.stem}_{i:04d}{out.suffix}")
        qz.save_tokens(dest, grid)
        outputs.append(dest)
    print(f"compression factor: {config.compression_factor}x "
          f"({len(outputs)} token grid(s), {grid.indices.size} tokens each)")
    write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "tokenize",
                   {"ckpt": str(args.ckpt), "compression": config.compression},
                   state.seed, [args.ckpt, args.data], outputs, started)
    return 0


def cmd_detokenize(args) -> int:
    started = time.time()
    state, _ = mdl.load_checkpoint(args.ckpt)
    grid = qz.load_tokens(args.tokens)
    vol = mdl.decode(state, grid)
    out = Path(args.out)
    tc.save_tensor(out, vol)
    write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "detokenize",
                   {"ckpt": str(args.ckpt)}, state.seed,
                   [args.ckpt, args.tokens], [out], started)
    print(f"reconstructed volume {vol.shape} -> {out}")
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    state, _ = mdl.load_checkpoint(args.ckpt)
    items = _load_items(args.data, state.config, args.stride)
    report = mx.evaluate(state, (tr.prepare_window(state.config, it) for it in items),
                         model_tag=args.tag)
    out = Path(args.out)
    mx.write_report_csv(out, [report])
    json_out = out.with_suffix(".json")
    mx.write_report_json(json_out, [report])
    write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "eval",
                   {"ckpt": str(args.ckpt)}, state.seed,
                   [args.ckpt, args.data], [out, json_out], started)
    print(f"ssim={report.ssim:.4f} psnr={report.psnr:.2f} l1={report.l1:.5f} "
          f"tstd={report.tstd:.5f} qloss={report.qloss:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="motok",
                                description="Motion heatmap tokenizer pipeline")
    p.add_argument("--version", action="version", version=f"motok {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate synthetic keypoint motion")
    s.add_argument("--joints", type=int, default=19)
    s.add_argument("--frames", type=int, default=256)
    s.add_argument("--family", choices=tr.MOTION_FAMILIES, default="random-smooth")
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--dims", type=int, choices=(2, 3), default=2)
    s.add_argument("--width", type=int, default=128)
    s.add_argument("--height", type=int, default=128)
    s.add_argument("--depth", type=int, default=128)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="train a model on keypoint data")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--resume", default=None, help="checkpoint to resume from")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("tokenize", help="compress motion into token grids")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--in", dest="data", required=True)
    s.add_argument("--stride", type=int, default=90)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_tokenize)

    s = sub.add_parser("detokenize", help="reconstruct heatmaps from tokens")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--tokens", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_detokenize)

    s = sub.add_parser("eval", help="score reconstructions with the metric suite")
    s.add_argument("--ckpt", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--stride", type=int, default=90)
    s.add_argument("--tag", default="VQ-GAN")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArgumentError, ShapeError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"corrupt artifact: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
