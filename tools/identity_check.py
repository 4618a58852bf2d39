"""Check that this checkout writes the same artifacts, byte for byte, as an
earlier commit.

Usage, from the root of a checkout:

    python3 tools/identity_check.py --base REV

REV is checked out with ``git worktree add`` under ``.bench_build/`` and
removed again at the end. Both trees run the same jobs, each a
``python -m motok.cli`` process (so through ``cli.main``) at one BLAS thread:

- ``synth`` of the README walkthrough's keypoints, and of the same motion
  family in 3-D (``--dims 3``, a 32^3 volume);
- three 20-step training runs, checkpointing every 10 steps: the README
  config; the same with ``lambda_adv`` 0.1 and ``warmup_steps`` 0, so the
  discriminator trains from the first step; and a ``triplane`` run with 12
  input channels on the 3-D keypoints;
- on each run's final checkpoint, ``tokenize``, ``detokenize`` of the first
  token grid, and ``eval``;
- ``adv_resumed``: the ``lambda_adv`` run again, resumed from its step-10
  checkpoint with the same config and seed. Its final checkpoint must equal
  the uninterrupted run's byte for byte, or the job fails.

Then it compares the SHA-256 of every artifact the jobs write: the keypoints,
``loss_log.jsonl``, every ``ckpt_*.mck``, ``.mtk`` and ``.mht``, and the eval
``.csv``/``.json`` (not the manifests, which hold wall-clock times). It names
every file that differs or exists on one side only and exits 1 if any does,
0 if all are identical, and 2 if a job fails. For a differing eval ``.csv``
it also prints the largest absolute difference in each column, and for a
differing ``loss_log.jsonl`` the largest relative difference of each key.
The outputs stay in ``.bench_build/identity/{base,change}`` until the next
check.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

from bench_compare import BUILD, ROOT, worktree

OUT = BUILD / "identity"
STEPS = 20
SEED = 7
# The README walkthrough's config.
CONFIG = {
    "schema": 1,
    "model": {"compression": "F8", "vocab": 128, "embed_dim": 16, "base_channels": 8,
              "in_channels": 4, "input_extents": [16, 32, 32], "lambda_adv": 0.0},
    "trainer": {"lr": 0.001, "warmup_steps": 20},
    "window_stride": 16,
}
# Each run: its keypoint file, and its edit of CONFIG.
RUNS = {
    "readme": ("motion.jsonl", {"model": {}, "trainer": {"checkpoint_every": 10}}),
    "adv": ("motion.jsonl", {"model": {"lambda_adv": 0.1},
                             "trainer": {"warmup_steps": 0, "checkpoint_every": 10}}),
    "tri": ("motion3d.jsonl", {"model": {"mode": "triplane", "in_channels": 12},
                               "trainer": {"checkpoint_every": 10}}),
}
ARTIFACTS = ("motion*.jsonl", "*/loss_log.jsonl", "*/ckpt_*.mck", "*/*.mtk", "*/*.mht",
             "*/report.csv", "*/report.json")


def run_jobs(tree: Path, out: Path) -> None:
    """The jobs, through ``tree``'s motok, writing into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("MOTOK_SEED", None)

    def motok(*args):
        proc = subprocess.run([sys.executable, "-m", "motok.cli", *map(str, args)],
                              cwd=out, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{tree.name}: motok {' '.join(map(str, args))} exited "
                               f"{proc.returncode}: {proc.stderr.strip()[-500:]}")

    out.mkdir(parents=True)
    motok("synth", "--joints", 4, "--frames", 256, "--width", 32, "--height", 32,
          "--family", "walk-cycle", "--seed", SEED, "--out", "motion.jsonl")
    motok("synth", "--dims", 3, "--joints", 4, "--frames", 256, "--width", 32, "--height", 32,
          "--depth", 32, "--family", "walk-cycle", "--seed", SEED, "--out", "motion3d.jsonl")
    for name, (data, edit) in RUNS.items():
        config = copy.deepcopy(CONFIG)
        for section, fields in edit.items():
            config[section].update(fields)
        run = out / name
        run.mkdir()
        (run / "config.json").write_text(json.dumps(config), encoding="utf-8")
        ckpt = f"{name}/ckpt_final.mck"
        motok("train", "--config", f"{name}/config.json", "--data", data,
              "--steps", STEPS, "--seed", SEED, "--out", name)
        motok("tokenize", "--ckpt", ckpt, "--in", data, "--stride", 16,
              "--out", f"{name}/tokens.mtk")
        motok("detokenize", "--ckpt", ckpt, "--tokens", f"{name}/tokens_0000.mtk",
              "--out", f"{name}/recon.mht")
        motok("eval", "--ckpt", ckpt, "--data", data, "--stride", 16,
              "--out", f"{name}/report.csv")
    motok("train", "--config", "adv/config.json", "--data", "motion.jsonl", "--steps", STEPS,
          "--seed", SEED, "--resume", "adv/ckpt_0000010.mck", "--out", "adv_resumed")
    if (out / "adv_resumed/ckpt_final.mck").read_bytes() != \
            (out / "adv/ckpt_final.mck").read_bytes():
        raise RuntimeError(f"{tree.name}: adv_resumed/ckpt_final.mck differs from "
                           "adv/ckpt_final.mck")


def digests(out: Path) -> dict:
    """SHA-256 of each artifact under ``out``, by path relative to it."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for pattern in ARTIFACTS for p in sorted(out.glob(pattern))}


def column_diffs(base: Path, change: Path) -> str:
    """The largest absolute difference in each column of two eval ``.csv``
    reports; a column that is not numeric reads ``same`` or ``differs``."""
    with base.open(newline="") as fb, change.open(newline="") as fc:
        b, c = list(csv.reader(fb)), list(csv.reader(fc))
    if len(b) != len(c) or not b or b[0] != c[0] or len({len(r) for r in b + c}) != 1:
        return "header or row shape differs"
    parts = []
    for j, name in enumerate(b[0]):
        pairs = [(rb[j], rc[j]) for rb, rc in zip(b[1:], c[1:])]
        try:
            parts.append(f"{name} {max(abs(float(u) - float(v)) for u, v in pairs):.3g}")
        except ValueError:
            parts.append(f"{name} {'same' if all(u == v for u, v in pairs) else 'differs'}")
    return ", ".join(parts)


def log_diffs(base: Path, change: Path) -> str:
    """The largest relative difference, |change - base| / |base| over the
    lines, of each key of two loss logs (inf where only the base reads 0)."""
    b, c = ([json.loads(line) for line in p.read_text(encoding="utf-8").splitlines()]
            for p in (base, change))
    if len(b) != len(c) or not b or any(lb.keys() != lc.keys() for lb, lc in zip(b, c)):
        return "line count or keys differ"
    parts = []
    for key in b[0]:
        rel = max(abs(lc[key] - lb[key]) / abs(lb[key]) if lb[key] else
                  0.0 if lc[key] == 0 else math.inf for lb, lc in zip(b, c))
        parts.append(f"{key} {rel:.3g}")
    return ", ".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args()

    shutil.rmtree(OUT, ignore_errors=True)
    try:
        with worktree(args.base) as (base_commit, tree):
            for side, where in (("base", tree), ("change", ROOT)):
                run_jobs(where, OUT / side)
    except RuntimeError as exc:
        print(f"job failed: {exc}", file=sys.stderr)
        return 2

    base, change = digests(OUT / "base"), digests(OUT / "change")
    differ = sorted(p for p in base.keys() | change.keys() if base.get(p) != change.get(p))
    for p in differ:
        where = "base only" if p not in change else "change only" if p not in base else "differs"
        print(f"{where}: {p}")
        if where == "differs" and p.endswith(".csv"):
            print(f"  largest |change - base| by column: "
                  f"{column_diffs(OUT / 'base' / p, OUT / 'change' / p)}")
        if where == "differs" and p.endswith("loss_log.jsonl"):
            print(f"  largest |change - base| / |base| by key: "
                  f"{log_diffs(OUT / 'base' / p, OUT / 'change' / p)}")
    print(f"{len(base.keys() | change.keys()) - len(differ)} of "
          f"{len(base.keys() | change.keys())} artifacts identical to {args.base} "
          f"({base_commit[:12]}); outputs in {OUT.relative_to(ROOT)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
