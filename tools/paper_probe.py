"""Run one window at the paper's scale through motok and print what each
phase costs.

Usage, from the root of a checkout:

    OPENBLAS_NUM_THREADS=2 python3 tools/paper_probe.py

The model is the default ``ModelConfig`` (F8, 19 joints, 64x128x128, base 32,
embed 256) with ``lambda_adv`` 0, built untrained from seed 0; the window is
one synthetic ``random-smooth`` keypoint sequence of 64 frames. The phases
are set-up (the model and the keypoints), ``prepare_windows``, ``encode``,
``decode`` and the five metrics, each on its own line. After each phase it
prints its wall time, the process's ``ru_maxrss`` so far, the minor page
faults taken in the phase and the phase's tracemalloc peak (counted from the
probe's start, so it includes what earlier phases still hold).

It takes about a minute and 1 GB of memory on a 2-core host, so it is not
part of the tests.
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from motok import metrics as mx  # noqa: E402
from motok import model as mdl  # noqa: E402
from motok import trainer as tr  # noqa: E402

MB = float(1 << 20)


def main() -> int:
    print(f"{'phase':<16}{'wall_s':>8}{'maxrss_mb':>11}{'minflt':>9}{'peak_mib':>10}")
    tracemalloc.start()

    def phase(name, fn):
        tracemalloc.reset_peak()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        use = resource.getrusage(resource.RUSAGE_SELF)
        peak = tracemalloc.get_traced_memory()[1]
        print(f"{name:<16}{dt:>8.2f}{use.ru_maxrss / 1024:>11.1f}"
              f"{use.ru_minflt - faults:>9}{peak / MB:>10.1f}", flush=True)
        return out

    def setup():
        config = mdl.ModelConfig(lambda_adv=0.0)
        t_ext, h_ext, w_ext = config.input_extents
        kp = tr.synth_motion(tr.SyntheticMotionSpec(
            joints=config.in_channels, frames=t_ext, width=w_ext, height=h_ext, seed=0))
        return mdl.build(config, 0), kp

    state, kp = phase("setup", setup)
    win = phase("prepare_windows", lambda: tr.prepare_windows(state.config, [kp])[0])
    z_e, grid, _ = phase("encode", lambda: mdl.encode(state, win[None]))
    xhat = phase("decode", lambda: mdl.decode(state, grid))
    x = np.moveaxis(win, 0, 1)  # [T,C,H,W], as decode returns
    phase("ssim", lambda: mx.ssim(x, xhat))
    phase("psnr", lambda: mx.psnr(x, xhat))
    phase("l1", lambda: mx.l1(x, xhat))
    phase("tstd", lambda: mx.tstd(xhat))
    phase("qloss", lambda: mx.qloss(z_e.data, grid.indices, state.codebook.entries.data))
    tracemalloc.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
