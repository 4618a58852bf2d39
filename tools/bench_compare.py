"""Compare the benchmark of this checkout with that of an earlier commit.

Usage, from the root of a checkout:

    python3 tools/bench_compare.py --base REV --pairs 10 --out BENCH_<n>.json

REV is checked out with ``git worktree add`` under ``.bench_build/`` and
removed again at the end. For each pair and each workload, both trees run
``perfbench/run.py --trace 0`` with the seed given and the run length that
``BENCHMARK.json`` fixes; the base goes first in even pairs and the change in
odd ones. For every end-to-end metric of ``BENCHMARK.json`` the output holds
each side's runs, median and quartiles, the pairs the change won, and two
verdicts:

- ``gain``: of at least ten pairs, the change won nine tenths or more, and
  its median beats the base's by more than the distance between the base's
  quartiles, and for ``peak_rss_mb`` by more than 1 MB;
- ``within_bound``: the change's median is no worse than the base's by more
  than the metric's bound.

It also records nproc, the BLAS threads, the CPU model and both commits. The
change is the checkout as it is on disk, so ``change.dirty`` says whether its
``src`` or ``perfbench`` differ from its HEAD.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SHARE_TO_WIN = 0.9
MIN_PAIRS = 10  # fewer pairs show no gain, however they fall
# The least median margin a gain needs beyond the base's spread. Peak RSS moves
# by a few tenths of a MB between checkouts that run the same code.
MIN_MARGIN = {"peak_rss_mb": 1.0}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


@contextlib.contextmanager
def worktree(rev: str):
    """Yield REV's commit and a checkout of it under ``.bench_build/``, which
    is removed again on the way out."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / f"base-{commit[:12]}"
    if tree.exists():
        git("worktree", "remove", "--force", str(tree))
    BUILD.mkdir(exist_ok=True)
    git("worktree", "add", "--detach", str(tree), commit)
    try:
        yield commit, tree
    finally:
        git("worktree", "remove", "--force", str(tree))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0``: its report, or the error that ended it."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-2])["report"]


def summary(values: list) -> dict:
    return {"median": statistics.median(values),
            "quartiles": statistics.quantiles(values, n=4) if len(values) > 1 else None,
            "runs": values}


def compare(spec: dict, pairs: list) -> dict:
    """Per-metric verdicts over the (base, change) report pairs of one workload."""
    whole = [(b, c) for b, c in pairs if "error" not in b and "error" not in c]
    out = {"pairs": len(pairs), "pairs_complete": len(whole),
           "errors": [r["error"] for pair in pairs for r in pair if "error" in r],
           "correct": {side: sum(p[i]["correct"] for p in whole)
                       for i, side in enumerate(("base", "change"))},
           "ops_failed": {side: sum(p[i]["failed"] for p in whole)
                          for i, side in enumerate(("base", "change"))},
           "metrics": {}}
    if not whole:
        return out
    for m in spec["end_to_end"]:
        sign = 1.0 if m["better"] == "lower" else -1.0
        base = [b["metrics"][m["name"]]["value"] for b, _ in whole]
        change = [c["metrics"][m["name"]]["value"] for _, c in whole]
        won = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        lost = sum(sign * (b - c) < 0 for b, c in zip(base, change))
        sb, sc = summary(base), summary(change)
        spread = sb["quartiles"][2] - sb["quartiles"][0] if sb["quartiles"] else 0.0
        margin = sign * (sb["median"] - sc["median"])
        out["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "base": sb, "change": sc, "change_won": won, "change_lost": lost,
            "gain": (len(whole) >= MIN_PAIRS and won >= SHARE_TO_WIN * len(whole)
                     and margin > max(spread, MIN_MARGIN.get(m["name"], 0.0))),
            "within_bound": -margin <= m["bound"] * abs(sb["median"]),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="repeat to pick several; default: every workload")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    chosen = args.workload or workloads
    seconds = spec["run_seconds"]

    runs = {w: [] for w in chosen}
    with worktree(args.base) as (base_commit, tree):
        for i in range(args.pairs):
            for w in chosen:
                order = ((0, tree), (1, ROOT)) if i % 2 == 0 else ((1, ROOT), (0, tree))
                pair = [None, None]
                for side, where in order:
                    pair[side] = run_once(where, w, args.seed, seconds)
                runs[w].append(pair)
                print(f"pair {i + 1}/{args.pairs} {w}: " + ", ".join(
                    r.get("error") or f"{r['metrics']['window_ms_p50']['value']:.1f} ms"
                    for r in pair), file=sys.stderr)

    envs = [[pair[side]["env"] for w in chosen for pair in runs[w] if "env" in pair[side]]
            for side in (0, 1)]
    env = (envs[0] + envs[1] or [{}])[0]
    result = {
        "base": {"rev": args.base, "commit": base_commit,
                 "source_sha256": sorted({e["source_sha256"] for e in envs[0]})},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
                   "source_sha256": sorted({e["source_sha256"] for e in envs[1]})},
        "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
        "env": {"nproc": env.get("nproc"), "cpus_usable": env.get("cpus_usable"),
                "cpu_model": env.get("cpu_model"),
                "blas_threads": {w: next((r["env"]["blas_threads"] for pair in runs[w]
                                          for r in pair if "env" in r), None)
                                 for w in chosen}},
        "workloads": {w: compare(spec, runs[w]) for w in chosen},
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for w in chosen:
        for name, m in result["workloads"][w]["metrics"].items():
            print(f"{w} {name}: base {m['base']['median']:.4g} change "
                  f"{m['change']['median']:.4g} {m['unit']}, change won "
                  f"{m['change_won']}/{result['workloads'][w]['pairs_complete']}, "
                  f"gain={m['gain']} within_bound={m['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
