"""motok benchmark: one workload in fresh worker processes, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-f8-adv --seed 1 --seconds 35 --trace 0

Each worker (``worker.py``) imports motok from this checkout's ``src`` with
the BLAS thread count pinned per workload (``BLAS_THREADS``). ``SETUP_PROCESSES`` workers
only set up, for ``setup_s``; one more runs the workload. This process waits
for each, adds the peak RSS and an environment stamp, checks that the exact
per-op counts repeat, and prints two lines: the full report, then the result.
With ``--trace 0`` the result holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics. Everything the
run writes stays under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("train-f8-adv", "codec-f8-cli", "tokenize-f16-bulk")
WORKER_TIMEOUT_S = 170    # for all of a run's worker processes together
# Set-up time is the median over this many fresh processes that only set up.
SETUP_PROCESSES = 5
# The seed used while building the benchmark, and one kept back to confirm a
# claimed gain on inputs no change was tuned on.
DEV_SEED = 1
HELDOUT_SEED = 7
# BLAS threads per workload, fixed (capped at the usable cores) so that hosts
# with more cores give comparable figures. On a shared 2-core host, with runs
# of 1 and 2 threads interleaved, 2 threads cut the seed-to-seed spread of
# window_ms_p50 on train (12% to 5%) and bulk (12% to 4%), while the codec's
# batch-1 GEMMs spread far more with 2 threads (27%) than with 1 (8%).
BLAS_THREADS = {"train-f8-adv": 2, "codec-f8-cli": 1, "tokenize-f16-bulk": 2}
MB = float(1 << 10)  # ru_maxrss is in KiB


def _read(path: Path) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "motok").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return _read(git / ref).strip()
    if (git / "packed-refs").is_file():
        for line in _read(git / "packed-refs").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model():
    try:
        for line in _read(Path("/proc/cpuinfo")).splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def quantile_summary(values):
    """Median and p90 with sample counts; p90 needs 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = -(-9 * n // 10)  # ceil(0.9 n)
    beyond = n - rank
    return {"p50": statistics.median(ordered),
            "p90": ordered[rank - 1] if beyond >= 10 else None,
            "n": n, "n_beyond_p90": beyond}


def metric(value, unit, **more):
    return {"value": value, "unit": unit, **more}


def end_to_end(worker, peak_rss_mb, attempted, failed):
    """Every end-to-end number of the untraced phase, by its report name."""
    phase = worker["phases"]["untraced"]
    samples = phase["samples"]
    extra = phase["extra"]
    window_ms = [s * 1000.0 / w for s, w in samples]
    report = {
        "setup_s": metric(worker["setup_s"], "s", n=len(worker["setups"])),
        "window_ms_p50": metric(statistics.median(window_ms), "ms", n=len(window_ms),
                                quartiles=statistics.quantiles(window_ms, n=4)
                                if len(window_ms) > 1 else None),
        "windows_per_s": metric(sum(w for _, w in samples) / sum(s for s, _ in samples),
                                "1/s", n=len(samples)),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "ops_failed_ratio": metric(failed / attempted, "ratio", n=attempted),
    }
    if worker["unit"] == "step":
        q = quantile_summary([s * 1000.0 for s, _ in samples])
        report["train_step_ms_p50"] = metric(q["p50"], "ms", n=q["n"])
        report["train_step_ms_p90"] = metric(q["p90"], "ms", n=q["n"],
                                             n_beyond=q["n_beyond_p90"])
        report["train_loss_final"] = metric(extra.get("train_loss_final"), "loss")
    for key in ("tokenize_windows_per_s", "detokenize_windows_per_s",
                "eval_windows_per_s"):
        if key in extra:
            report[key] = metric(extra[key], "1/s")
    if "eval_ssim" in extra:
        report["eval_ssim"] = metric(extra["eval_ssim"], "ssim")
    return report


def per_layer(worker):
    """Per-layer numbers of the traced phase plus the trace's own accounting."""
    layers = dict(worker["layers"])
    per_op = {}
    for label, phase in worker["phases"].items():
        if worker["unit"] == "step":
            per_op[label] = [s * 1000.0 for s, _ in phase["samples"]]
        else:
            per_op[label] = [s * 1000.0 / w for s, w in phase["samples"]]
    samples = worker["phases"]["traced"]["samples"]
    if worker["unit"] == "step":
        traced_mean = statistics.fmean(per_op["traced"])
    else:
        traced_mean = 1000.0 * sum(s for s, _ in samples) / sum(w for _, w in samples)
    untraced = statistics.median(per_op["untraced"])
    traced = statistics.median(per_op["traced"])
    conv = layers["tensorcore.conv3d.fwd_ms"]["value"] + \
        layers["tensorcore.conv3d.bwd_ms"]["value"]
    # Each layer time as a share of the traced op: a layer the workload does
    # not reach reads exactly 0, which is not a time.
    for name, got in list(layers.items()):
        if name.endswith("_ms") and not name.startswith("bench."):
            layers[name[:-len("_ms")] + "_share"] = metric(got["value"] / traced_mean, "ratio")
    for name, value in worker["setup_layers"].items():
        layers[f"setup.{name}"] = metric(value, "ms")
    layers.update({
        "bench.untraced_ms_p50": metric(untraced, "ms", n=len(per_op["untraced"])),
        "bench.traced_ms_p50": metric(traced, "ms", n=len(per_op["traced"])),
        "bench.traced_ms_mean": metric(traced_mean, "ms"),
        "bench.trace_overhead_ratio": metric(traced / untraced, "ratio"),
        "tensorcore.conv3d.share": metric(conv / traced_mean, "ratio"),
    })
    return layers


def count_drift(workload, op_counts):
    """Failures from exact counts that differ between ops or from an earlier
    run of the same source; the first run of a source records them."""
    problems = []
    if not op_counts:
        return problems
    first = op_counts[0]
    drifted = [i for i, counts in enumerate(op_counts) if counts != first]
    if drifted:
        problems.append(f"exact counts drift within the run at ops {drifted[:10]}")
    record = OUT / "counts" / f"{workload}-{source_digest()}.json"
    if record.is_file():
        earlier = json.loads(_read(record))
        if earlier != first:
            problems.append(f"exact counts {first} differ from an earlier run's {earlier}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        with open(record, "w", encoding="utf-8") as f:
            json.dump(first, f)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "motok" / "__init__.py").is_file():
        print(f"error: no motok source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(_read(ROOT / "BENCHMARK.json"))

    threads = str(min(BLAS_THREADS[args.workload], len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env.pop("MOTOK_SEED", None)  # the CLI would let it override every seed
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    load_before = os.getloadavg()

    def spawn(label, *more):
        result_path = workdir / f"{label}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(workdir / label), "--result", str(result_path), *more,
               "--spawned-at", repr(time.time())]
        code = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0)).returncode
        if code != 0:
            raise RuntimeError(f"{label} worker exited with {code}")
        return json.loads(_read(result_path))

    try:
        setups = [spawn(f"setup{i}", "--setup-only") for i in range(SETUP_PROCESSES)]
        worker = spawn("run", "--seconds", str(args.seconds), "--trace", str(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / MB
    worker["setup_s"] = statistics.median(s["total_s"] for s in setups)
    worker["setups"] = setups

    phases = worker["phases"].values()
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = [q for p in phases for q in p["problems"]]
    counted = worker["phases"].get("traced", {}).get("op_counts", [])
    drift = count_drift(args.workload, counted)
    failed += len(drift)
    problems += drift
    correct = failed == 0 and worker.get("wrappers_restored", True)
    if not worker.get("wrappers_restored", True):
        problems.append("trace wrappers did not restore the original functions")

    report = end_to_end(worker, peak_rss_mb, attempted, failed)
    if args.trace == 1:
        report.update(per_layer(worker))
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": report,
        "exact_counts_per_op": counted[0] if counted else None,
        "loss_log": worker.get("loss_log"),
        "waited": "not measured: motok has no queues or worker threads",
        "env": {
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS",
                                                 "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_model": cpu_model(), "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "seed": args.seed,
            "dev_seed": DEV_SEED, "heldout_seed": HELDOUT_SEED,
            "setups": worker["setups"], **worker["env"],
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    chosen = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = report["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {got['unit']} is not {m['unit']}")
        chosen[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
