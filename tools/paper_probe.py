"""Run one window at the paper's scale through motok and print what each
phase costs.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=2 python3 tools/paper_probe.py
    OPENBLAS_NUM_THREADS=2 python3 tools/paper_probe.py --train [--batch N]

The model is the default ``ModelConfig`` (F8, 19 joints, 64x128x128, base 32,
embed 256), built untrained from seed 0; the window is one synthetic
``random-smooth`` keypoint sequence of 64 frames.

Without ``--train`` the config has ``lambda_adv`` 0, and the phases are
set-up (the model and the keypoints), ``prepare_windows``, ``encode``,
``decode`` and the five metrics, each on its own line. It takes about a
minute and 1 GB of memory on a 2-core host.

With ``--train`` it runs one ``trainer.train`` step of the default config
(``lambda_adv`` 0.1) with ``warmup_steps`` 0, so the discriminator runs too,
at batch ``N`` (1 by default). The phases are set-up (the keypoints) and
``train``, which also prints ``bwd_mib``: tracemalloc's reading when the
generator's backward starts, that is what the tape holds then, the model and
the batch included. At batch 1 it takes about 55 s and 2.2 GB on a 2-core
host, and at batch 2 about 4.3 GB.

After each phase it prints its wall time, the process's ``ru_maxrss`` so far,
the minor page faults taken in the phase and the phase's tracemalloc peak
(counted from the probe's start, so it includes what earlier phases still
hold). A watchdog thread stops the process with exit status 1 once
``ru_maxrss`` passes ``--max-rss-mb`` (4000 by default): on a host without
swap, a process killed for want of memory can take others down with it.
Neither mode is part of the tests.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import threading
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from motok import metrics as mx  # noqa: E402
from motok import model as mdl  # noqa: E402
from motok import tensorcore as tc  # noqa: E402
from motok import trainer as tr  # noqa: E402

MB = float(1 << 20)
COLUMNS = f"{'phase':<16}{'wall_s':>8}{'maxrss_mb':>11}{'minflt':>9}{'peak_mib':>10}"


def phase(name, fn, extra=lambda: ""):
    """Run ``fn``, print its line and return its result. ``extra`` gives
    text for the line's end, read once ``fn`` has returned."""
    tracemalloc.reset_peak()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    use = resource.getrusage(resource.RUSAGE_SELF)
    peak = tracemalloc.get_traced_memory()[1]
    print(f"{name:<16}{dt:>8.2f}{use.ru_maxrss / 1024:>11.1f}"
          f"{use.ru_minflt - faults:>9}{peak / MB:>10.1f}{extra()}", flush=True)
    return out


def keypoints(config):
    t_ext, h_ext, w_ext = config.input_extents
    return tr.synth_motion(tr.SyntheticMotionSpec(
        joints=config.in_channels, frames=t_ext, width=w_ext, height=h_ext, seed=0))


def inference_phases(config) -> None:
    """Set-up, ``prepare_windows``, ``encode``, ``decode`` and the five
    metrics of one window of ``config``, a line each."""
    print(COLUMNS)
    tracemalloc.start()
    try:
        state, kp = phase("setup", lambda: (mdl.build(config, 0), keypoints(config)))
        win = phase("prepare_windows", lambda: tr.prepare_windows(config, [kp])[0])
        z_e, grid, _ = phase("encode", lambda: mdl.encode(state, win[None]))
        xhat = phase("decode", lambda: mdl.decode(state, grid))
        x = np.moveaxis(win, 0, 1)  # [T,C,H,W], as decode returns
        phase("ssim", lambda: mx.ssim(x, xhat))
        phase("psnr", lambda: mx.psnr(x, xhat))
        phase("l1", lambda: mx.l1(x, xhat))
        phase("tstd", lambda: mx.tstd(xhat))
        phase("qloss", lambda: mx.qloss(z_e.data, grid.indices, state.codebook.entries.data))
    finally:
        tracemalloc.stop()


def train_phase(config, batch: int = 1) -> None:
    """One ``trainer.train`` step of ``config`` from seed 0 at ``batch``, with
    ``warmup_steps`` 0: a set-up line and a ``train`` line, which ends with
    tracemalloc's reading, in MiB, when the generator's backward starts."""
    print(COLUMNS + f"{'bwd_mib':>9}")
    starts = []
    backward = tc.backward

    def reading_backward(loss):
        starts.append(tracemalloc.get_traced_memory()[0])
        backward(loss)

    tracemalloc.start()
    tc.backward = reading_backward
    try:
        kp = phase("setup", lambda: keypoints(config))
        tcfg = tr.TrainerConfig(batch_size=batch, warmup_steps=0)
        phase("train", lambda: tr.train(config, [kp], 1, 0, tcfg),
              lambda: f"{starts[0] / MB:>9.1f}")
    finally:
        tc.backward = backward
        tracemalloc.stop()


def start_watchdog(limit_mb: float, period_s: float = 0.05) -> None:
    """Stop the process, with a message and exit status 1, once its
    ``ru_maxrss`` passes ``limit_mb``. A daemon thread polls it; numpy and
    BLAS release the GIL in their long loops, so it runs during them."""
    def watch():
        while True:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if rss > limit_mb:
                print(f"paper_probe: ru_maxrss {rss:.0f} MB passed --max-rss-mb "
                      f"{limit_mb:g}; stopped", file=sys.stderr, flush=True)
                os._exit(1)
            time.sleep(period_s)

    threading.Thread(target=watch, daemon=True).start()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--train", action="store_true",
                    help="one training step in place of the inference phases")
    ap.add_argument("--batch", type=int, default=1, help="the training batch (with --train)")
    ap.add_argument("--max-rss-mb", type=float, default=4000.0,
                    help="stop once ru_maxrss passes this many MB")
    args = ap.parse_args(argv)
    if args.batch < 1:
        ap.error("--batch must be at least 1")
    if not args.train and args.batch != 1:
        ap.error("--batch needs --train")
    start_watchdog(args.max_rss_mb)
    if args.train:
        train_phase(mdl.ModelConfig(), args.batch)
    else:
        inference_phases(mdl.ModelConfig(lambda_adv=0.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
