"""One benchmark workload in one fresh process; started by ``run.py``.

The parent pins the BLAS thread count in this process's environment before
numpy loads. This process sets the workload up, runs its ops in a closed loop
for the requested seconds, checks every op's output, and writes the raw
result as JSON to ``--result``. With ``--setup-only`` it stops after the
set-up and reports how long the process took to get there.

With ``--trace 1`` the run has two phases: the first third untraced, the rest
traced. The untraced phase gives the baseline for the trace overhead and, on
the training workload, the loss log the traced phase must reproduce byte for
byte.
"""

from __future__ import annotations

import time

SPAWNED_AT = time.time()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
UNTRACED_SHARE = 1.0 / 3.0

TRAIN_STEPS_MIN = 16      # train_loss_final averages steps 13..16
TRAIN_WARMUP_STEPS = 2
LOSS_STEPS = slice(12, 16)


class _Deadline(Exception):
    """Raised from the loss-log stream to end a time-bounded training run."""


class Phase:
    """Timed ops of one phase and the checks made on them."""

    def __init__(self, seconds, tracer=None):
        self.deadline = time.perf_counter() + seconds
        self.tracer = tracer
        self.samples = []         # (seconds, windows) per op after warm-up
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.extra = {}
        self.op_counts = []       # exact tracer counts per op after warm-up
        self._mark = None

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def warm(self) -> None:
        """Warm-up is over: drop what the tracer holds and start counting."""
        if self.tracer is not None:
            self.tracer.reset()
            self._mark = self.tracer.exact_counts()

    def boundary(self) -> None:
        """End of one timed op: record the exact counts it added."""
        if self.tracer is not None and self._mark is not None:
            now = self.tracer.exact_counts()
            self.op_counts.append({k: now[k] - self._mark[k] for k in now})
            self._mark = now

    @contextlib.contextmanager
    def untraced(self):
        """Checks run outside the trace so they add nothing to any layer."""
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        finally:
            if active:
                self.tracer.active = True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """``setup`` makes the inputs (timed as set-up), ``prepare`` anything the
    checks need (untimed), ``run`` the closed loop of one phase."""

    def __init__(self, m, seed):
        self.m = m
        self.seed = seed

    def prepare(self, workdir):
        pass


class TrainF8Adv(Workload):
    """README smoke config with the discriminator on from step 1."""

    name = "train-f8-adv"
    unit = "step"

    def __init__(self, m, seed):
        super().__init__(m, seed)
        self.config = m.model.ModelConfig(
            compression="F8", vocab=128, embed_dim=16, base_channels=8, in_channels=4,
            input_extents=(16, 32, 32), lambda_adv=0.1)
        self.tcfg = m.trainer.TrainerConfig(lr=1e-3, warmup_steps=0)
        self.windows_per_op = self.tcfg.batch_size

    def setup(self, workdir):
        m = self.m
        kp = m.trainer.synth_motion(m.trainer.SyntheticMotionSpec(
            joints=4, frames=256, family="walk-cycle", seed=self.seed, width=32, height=32))
        t, h, w = self.config.input_extents
        self.data = [m.heatmap.render2d(win, h, w, self.config.sigma)
                     for win in m.heatmap.window(kp, t, t)]

    def run(self, phase: Phase, workdir):
        m = self.m
        stamps = []
        faults = []
        lines = []

        class LogClock:
            def write(_, text):
                stamps.append(time.perf_counter())
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
                lines.append(text)
                record = json.loads(text)
                phase.op(all(math.isfinite(v) for k, v in record.items() if k != "step"),
                         f"step {record['step']}: non-finite loss")
                step = len(lines)
                if step == TRAIN_WARMUP_STEPS:
                    phase.warm()
                elif step > TRAIN_WARMUP_STEPS:
                    phase.boundary()
                if step >= TRAIN_STEPS_MIN and phase.expired():
                    raise _Deadline

        stamps.append(time.perf_counter())
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        try:
            m.trainer.train(self.config, self.data, 10 ** 9, self.seed, self.tcfg,
                            log_stream=LogClock())
        except _Deadline:
            pass
        except Exception as exc:  # a step that raised is a failed op
            phase.op(False, f"step {len(lines) + 1}: {type(exc).__name__}: {exc}")
        w = TRAIN_WARMUP_STEPS
        phase.samples = [(b - a, self.windows_per_op)
                         for a, b in zip(stamps[w:], stamps[w + 1:])]
        phase.extra["log_lines"] = lines
        phase.extra["minflt"] = [b - a for a, b in zip(faults[w:], faults[w + 1:])]
        totals = [json.loads(line)["total"] for line in lines[LOSS_STEPS]]
        if len(totals) == LOSS_STEPS.stop - LOSS_STEPS.start:
            phase.extra["train_loss_final"] = statistics.fmean(totals)


class CodecF8Cli(Workload):
    """The user's pipeline: motok tokenize -> detokenize per grid -> eval."""

    name = "codec-f8-cli"
    unit = "window"
    inputs = 4
    frames = 128

    def __init__(self, m, seed):
        super().__init__(m, seed)
        self.config = m.model.ModelConfig(
            compression="F8", vocab=128, embed_dim=16, base_channels=8, in_channels=4,
            input_extents=(16, 32, 32), lambda_adv=0.0)
        self.windows_per_op = self.frames // self.config.input_extents[0]

    def setup(self, workdir):
        m = self.m
        for k in range(self.inputs):
            kp = m.trainer.synth_motion(m.trainer.SyntheticMotionSpec(
                joints=4, frames=self.frames, family="random-smooth",
                seed=self.seed * 16 + k, width=32, height=32))
            m.heatmap.save_keypoints(workdir / f"motion{k}.jsonl", kp)
        state = m.model.build(self.config, self.seed)
        m.model.save_checkpoint(workdir / "model.mck", state)

    def prepare(self, workdir):
        """In-memory token grids each input must tokenize to (untimed)."""
        m = self.m
        state, _ = m.model.load_checkpoint(workdir / "model.mck")
        t = self.config.input_extents[0]
        self.expected = []
        for k in range(self.inputs):
            kp = m.heatmap.load_keypoints(workdir / f"motion{k}.jsonl")
            wins = m.trainer.prepare_windows(self.config, m.heatmap.window(kp, t, t))
            self.expected.append([m.model.encode(state, w[None])[1].indices for w in wins])
        self.ssim = {}

    def _command(self, argv):
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.m.cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed command
            code = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, code, sink.getvalue().strip()[-200:]

    def run(self, phase: Phase, workdir):
        m = self.m
        n = self.windows_per_op
        ckpt = str(workdir / "model.mck")
        stride = str(self.config.input_extents[0])
        stage = {"tokenize": [0.0, 0], "detokenize": [0.0, 0], "eval": [0.0, 0]}
        cycle = 0
        while cycle < 2 or not phase.expired():
            k = cycle % self.inputs
            data = str(workdir / f"motion{k}.jsonl")
            runs = [("tokenize", n, ["tokenize", "--ckpt", ckpt, "--in", data,
                                     "--stride", stride, "--out", str(workdir / "tok.mtk")])]
            runs += [("detokenize", 1, ["detokenize", "--ckpt", ckpt,
                                        "--tokens", str(workdir / f"tok_{i:04d}.mtk"),
                                        "--out", str(workdir / f"rec_{i:04d}.mht")])
                     for i in range(n)]
            runs.append(("eval", n, ["eval", "--ckpt", ckpt, "--data", data, "--stride",
                                     stride, "--out", str(workdir / "report.csv")]))
            took = 0.0
            for kind, windows, argv in runs:
                dt, code, said = self._command(argv)
                took += dt
                with phase.untraced():
                    problem = None if code == 0 else f"exit {code}: {said}"
                    problem = problem or self._check(kind, argv, k, workdir)
                phase.op(problem is None, f"cycle {cycle} {kind}: {problem}")
                if cycle > 0:
                    stage[kind][0] += dt
                    stage[kind][1] += windows
            if cycle == 0:
                phase.warm()
            else:
                phase.samples.append((took, n))
                phase.boundary()
            cycle += 1
        for kind, (seconds, windows) in stage.items():
            phase.extra[f"{kind}_windows_per_s"] = windows / seconds
        if self.ssim:
            phase.extra["eval_ssim"] = statistics.fmean(self.ssim.values())

    def _check(self, kind, argv, k, workdir):
        m = self.m
        if kind == "tokenize":
            for i, want in enumerate(self.expected[k]):
                grid = m.quantizer.load_tokens(workdir / f"tok_{i:04d}.mtk")
                if grid.vocab != self.config.vocab or not (grid.indices == want).all():
                    return f"token grid {i} differs from the in-memory grid"
            return None
        if kind == "detokenize":
            vol = m.tensorcore.load_tensor(argv[-1])
            t, h, w = self.config.input_extents
            if vol.shape != (t, self.config.in_channels, h, w):
                return f"volume shape {vol.shape}"
            if not (vol.min() >= 0.0 and vol.max() <= 1.0):
                return "volume values outside [0,1]"
            return None
        with open(workdir / "report.json", encoding="utf-8") as f:
            report = json.load(f)[0]
        values = [report[key] for key in ("ssim", "psnr", "l1", "tstd", "qloss")]
        if not all(math.isfinite(v) for v in values):
            return f"non-finite metric in {values}"
        if report["ssim"] > 1.0 or report["psnr"] > 100.0:
            return f"ssim {report['ssim']} or psnr {report['psnr']} out of range"
        if self.ssim.setdefault(k, report["ssim"]) != report["ssim"]:
            return f"ssim {report['ssim']} differs from {self.ssim[k]} on the same input"
        return None


class TokenizeF16Bulk(Workload):
    """Batch-8 forward encode of large volumes: conv forward and nothing else."""

    name = "tokenize-f16-bulk"
    unit = "window"
    windows_per_op = 8
    batches = 2

    def __init__(self, m, seed):
        super().__init__(m, seed)
        self.first = {}  # batch -> grids of its first encode
        self.config = m.model.ModelConfig(
            compression="F16", vocab=512, embed_dim=16, base_channels=8, in_channels=4,
            input_extents=(32, 64, 64), lambda_adv=0.0)

    def setup(self, workdir):
        m = self.m
        t, h, w = self.config.input_extents
        kp = m.trainer.synth_motion(m.trainer.SyntheticMotionSpec(
            joints=4, frames=t * self.windows_per_op * self.batches,
            family="random-smooth", seed=self.seed, width=w, height=h))
        wins = m.trainer.prepare_windows(self.config, m.heatmap.window(kp, t, t))
        b = self.windows_per_op
        self.data = [m.np.stack(wins[i:i + b]) for i in range(0, len(wins), b)]
        self.state = m.model.build(self.config, self.seed)

    def run(self, phase: Phase, workdir):
        m = self.m
        latent = self.config.latent_extents
        call = 0
        while call < 2 or not phase.expired():
            b = call % len(self.data)
            t0 = time.perf_counter()
            try:
                _, grids, z_q = m.model.encode(self.state, self.data[b])
                problem = None
            except Exception as exc:  # a call that raised is a failed op
                problem = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            with phase.untraced():
                if problem is None:
                    got = m.np.stack([g.indices for g in grids])
                    if got.shape != (self.windows_per_op,) + latent:
                        problem = f"grids {got.shape}"
                    elif not m.np.isfinite(z_q.data).all():
                        problem = "non-finite z_q"
                    elif not (self.first.setdefault(b, got) == got).all():
                        problem = "grids differ from the first encode of this batch"
            phase.op(problem is None, f"call {call}: {problem}")
            if call == 0:
                phase.warm()
            else:
                phase.samples.append((dt, self.windows_per_op))
                phase.boundary()
            call += 1
        phase.extra["tokenize_windows_per_s"] = \
            sum(w for _, w in phase.samples) / sum(s for s, _ in phase.samples)


WORKLOADS = {w.name: w for w in (TrainF8Adv, CodecF8Cli, TokenizeF16Bulk)}


# ---------------------------------------------------------------------------

class Motok:
    """The motok modules, imported from this checkout's ``src``."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        self.np = numpy
        self.package = importlib.import_module("motok")
        origin = Path(self.package.__file__).resolve()
        if ROOT / "src" not in origin.parents:
            raise SystemExit(f"motok imported from {origin}, not from {ROOT / 'src'}")
        for name in ("tensorcore", "model", "quantizer", "losses", "metrics",
                     "heatmap", "trainer", "cli"):
            setattr(self, name, importlib.import_module(f"motok.{name}"))


def environment(m):
    blas = {}
    try:
        deps = m.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {"numpy": m.np.__version__, "python": sys.version.split()[0], "blas": blas,
            "motok_file": str(Path(m.package.__file__).resolve().relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, report the set-up time and exit")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    m = Motok()
    imported = time.perf_counter()
    workload = WORKLOADS[args.workload](m, args.seed)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace == 1:
        from layertrace import MODULES, Tracer
        tracer = Tracer(m.package, {n: getattr(m, n) for n in MODULES})
        tracer.install()
    workload.setup(workdir)
    done = time.perf_counter()
    result = {"unit": workload.unit, "start_s": SPAWNED_AT - args.spawned_at,
              "import_s": imported - STARTED, "setup_s": done - imported}
    result["total_s"] = result["start_s"] + (done - STARTED)
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as f:
            json.dump(result, f)
        return 0
    if tracer is not None:
        # Layers of one traced set-up, in ms; the timed phases start afresh.
        result["setup_layers"] = {k: v for k, (v, unit) in tracer.layer_metrics(1).items()
                                  if unit == "ms" and v}
        restored = tracer.uninstall()
        tracer.reset()
    workload.prepare(workdir)
    result["env"] = environment(m)
    if tracer is None:
        phases = {"untraced": Phase(args.seconds)}
        workload.run(phases["untraced"], workdir)
    else:
        phases = {"untraced": Phase(args.seconds * UNTRACED_SHARE)}
        workload.run(phases["untraced"], workdir)
        phases["traced"] = Phase(args.seconds * (1.0 - UNTRACED_SHARE), tracer)
        tracer.install()
        try:
            workload.run(phases["traced"], workdir)
        finally:
            restored = tracer.uninstall() and restored
        result["wrappers_restored"] = restored
        if workload.unit == "step":
            # Same seed, same code: the traced run must log the same bytes.
            pairs = list(zip(phases["untraced"].extra["log_lines"],
                             phases["traced"].extra["log_lines"]))
            differ = sum(a != b for a, b in pairs)
            result["loss_log"] = {"compared": len(pairs), "differ": differ}
            if differ:
                phases["traced"].failed += differ
                phases["traced"].problems.append(
                    f"{differ} of {len(pairs)} loss-log lines differ from the untraced run")
    result["phases"] = {}
    for label, phase in phases.items():
        result["phases"][label] = {
            "samples": phase.samples,
            "attempted": phase.attempted, "failed": phase.failed,
            "problems": phase.problems,
            "extra": {k: v for k, v in phase.extra.items() if k != "log_lines"},
            "op_counts": phase.op_counts,
        }
    if tracer is not None:
        traced = phases["traced"]
        per = len(traced.samples) if workload.unit == "step" else \
            sum(w for _, w in traced.samples)
        layers = tracer.layer_metrics(per)
        if workload.unit == "step":
            step_ms = statistics.fmean(s * 1000.0 for s, _ in traced.samples)
            layers.update(tracer.step_split("trainer.train", per, step_ms))
            layers["trainer.step.minflt"] = (statistics.fmean(traced.extra["minflt"]),
                                             "faults")
        else:
            for key in ("fwd_ms", "bwd_ms", "optim_ms", "other_ms"):
                layers[f"trainer.step.{key}"] = (0.0, "ms")
            layers["trainer.step.minflt"] = (0.0, "faults")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
