"""Reconstruction quality suite: SSIM, PSNR, L1, T-Std, Q-Loss.

All metrics (``ssim``, ``psnr``, ``l1``, ``tstd``, ``qloss``) are
deterministic pure functions over numpy arrays; ``ssim``, ``psnr``, ``l1``
and ``tstd`` read a view, such as the ``moveaxis`` views ``evaluate`` scores,
with the same result bytes as a contiguous copy of it. ``evaluate`` runs a model over
a dataset of heatmap windows and assembles one report row (the same column set
as the quantitative comparison table: model, compression, vocab, ssim, psnr,
l1, tstd, qloss).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import model as mdl
from . import tensorcore as tc
from .errors import ArgumentError, ShapeError

PSNR_CAP_DB = 100.0

SSIM_WINDOW = 7
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01) ** 2  # (0.01 * L)^2 with L = 1
SSIM_C2 = (0.03) ** 2


# Images whose five SSIM maps are filtered together: few enough that a group
# at 128x128 stays a few MB, enough that the per-group Python work is amortised.
SSIM_GROUP = 8


def _ssim_taps() -> np.ndarray:
    half = SSIM_WINDOW // 2
    g = np.exp(-(np.arange(SSIM_WINDOW, dtype=np.float64) - half) ** 2
               / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


def ssim(x, y) -> float:
    """Windowed SSIM with a 7x7 Gaussian window, averaged over windows,
    channels, and frames. Last two axes are spatial.

    The Gaussian window is separable (Wang et al. 2004): the five maps x, y,
    x², y² and xy, stacked together, are filtered with its normalised 1-D
    taps along W, then along H. ``einsum`` does the filtering rather than
    ``@``, which hands some strides to BLAS, so the result does not depend
    on the BLAS library or its thread count. The images, in
    ``reshape(-1, H, W)`` order, go through ``SSIM_GROUP`` at a time, each
    group taken straight from the input (a view or not) into a C-ordered f64
    array, and the SSIM-map sums are added up across groups.

    Memory: beyond its inputs, a call holds one group's maps, so its peak
    does not grow with the number of images, nor copies a non-contiguous
    input: ``tests/test_metrics.py`` checks that 4× the images raise the
    tracemalloc peak by at most 1.25×, and a transposed view's peak.
    """
    xv = np.asarray(x)
    yv = np.asarray(y)
    if xv.shape != yv.shape:
        raise ShapeError(f"ssim extent mismatch: {xv.shape} vs {yv.shape}")
    h, w = xv.shape[-2:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ArgumentError(f"spatial extents {h}x{w} smaller than SSIM window")
    lead = xv.shape[:-2] or (1,)
    xv, yv = xv.reshape(lead + (h, w)), yv.reshape(lead + (h, w))  # views: no axis merges
    count = int(np.prod(lead))
    g = _ssim_taps()
    total = 0.0
    for i in range(0, count, SSIM_GROUP):
        images = np.unravel_index(np.arange(i, min(i + SSIM_GROUP, count)), lead)
        a = xv[images].astype(np.float64, order="C")
        b = yv[images].astype(np.float64, order="C")
        maps = np.stack([a, b, a * a, b * b, a * b])
        for axis in (3, 2):  # W, then H
            maps = np.einsum("...k,k->...", sliding_window_view(maps, SSIM_WINDOW, axis=axis), g)
        mu_x, mu_y, e_xx, e_yy, e_xy = maps
        var_x = e_xx - mu_x * mu_x
        var_y = e_yy - mu_y * mu_y
        cov = e_xy - mu_x * mu_y
        num = (2 * mu_x * mu_y + SSIM_C1) * (2 * cov + SSIM_C2)
        den = (mu_x ** 2 + mu_y ** 2 + SSIM_C1) * (var_x + var_y + SSIM_C2)
        total += float(np.sum(num / den))
    return total / (count * (h - SSIM_WINDOW + 1) * (w - SSIM_WINDOW + 1))


def psnr(x, y, max_val: float = 1.0) -> float:
    """10 log10(max^2 / MSE) in dB; identical inputs return the 100 dB cap."""
    xv = np.asarray(x).astype(np.float64, order="C")
    yv = np.asarray(y).astype(np.float64, order="C")
    if xv.shape != yv.shape:
        raise ShapeError(f"psnr extent mismatch: {xv.shape} vs {yv.shape}")
    if max_val <= 0:
        raise ArgumentError(f"max_val must be positive, got {max_val}")
    mse = float(np.mean((xv - yv) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(max_val * max_val / mse))


def l1(x, y) -> float:
    """Mean absolute pixel-wise error."""
    xv = np.asarray(x).astype(np.float64, order="C")
    yv = np.asarray(y).astype(np.float64, order="C")
    if xv.shape != yv.shape:
        raise ShapeError(f"l1 extent mismatch: {xv.shape} vs {yv.shape}")
    return float(np.mean(np.abs(xv - yv)))


def tstd(v) -> float:
    """Temporal instability: per-frame spatial RMS of the deviation from each
    pixel's temporal mean, scaled by 1/(F*H*W); channels averaged.

    The outer 1/(F*H*W) scale folds the spatial size in twice; it is kept
    as-is since it is a constant factor per resolution.
    Note the value is frame-permutation invariant by construction.
    """
    vv = np.asarray(v).astype(np.float64, order="C")
    if vv.ndim == 3:
        vv = vv[:, None]  # [F,H,W] -> [F,1,H,W]
    if vv.ndim != 4:
        raise ShapeError(f"tstd expects [F,H,W] or [F,C,H,W], got {vv.shape}")
    f, _, h, w = vv.shape
    mu = vv.mean(axis=0, keepdims=True)
    inner = np.sqrt(np.mean((vv - mu) ** 2, axis=(2, 3)))  # [F,C]
    per_channel = inner.sum(axis=0) / (f * h * w)
    return float(per_channel.mean())


def qloss(z_e, indices, entries) -> float:
    """Q-loss: the VQ commitment term ||z_e - e||^2 (van den Oord et al. 2017)
    between each latent vector of ``z_e`` [N,d,t,h,w] and the codebook entry
    ``indices`` selects for it, averaged over lattice positions."""
    z = np.asarray(z_e)
    if z.ndim != 5:
        raise ShapeError(f"qloss expects [N,d,t,h,w] latents, got {z.shape}")
    flat = np.moveaxis(z, 1, 4).reshape(-1, z.shape[1])
    idx = np.asarray(indices).reshape(-1)
    if idx.size != flat.shape[0]:
        raise ShapeError(f"{idx.size} indices for {flat.shape[0]} latent positions")
    diff = flat - np.asarray(entries)[idx].astype(flat.dtype)
    return float(np.sum(diff * diff) / flat.shape[0])


@dataclass
class MetricsReport:
    """One evaluation row, column-compatible with the comparison table."""

    model_tag: str
    compression: str
    vocab: int
    ssim: float
    psnr: float
    l1: float
    tstd: float
    qloss: float

    def row(self) -> list:
        return [self.model_tag, self.compression, self.vocab,
                self.ssim, self.psnr, self.l1, self.tstd, self.qloss]


REPORT_COLUMNS = ["model", "compression", "vocab", "ssim", "psnr", "l1", "tstd", "qloss"]


def evaluate(state, windows, model_tag: str = "VQ-GAN") -> MetricsReport:
    """Reconstruct every window through encode/decode and average the metrics.

    ``windows`` yields the [C,T,H,W] arrays ``trainer.prepare_window`` returns,
    read one at a time. Each is encoded by ``model.encode`` and decoded from its
    token grid by ``model.decode``, so the scores are those of the volume
    ``detokenize`` writes. Q-loss is averaged over windows like the other metrics.
    """
    sums, n = np.zeros(5), 0
    for n, win in enumerate(windows, 1):
        z_e, grid, _ = mdl.encode(state, win[None])
        x = np.moveaxis(win, 0, 1)  # [T,C,H,W], as decode returns
        xhat = mdl.decode(state, grid)
        sums += [ssim(x, xhat), psnr(x, xhat), l1(x, xhat), tstd(xhat),
                 qloss(z_e.data, grid.indices, state.codebook.entries.data)]
    if not n:
        raise ArgumentError("evaluate requires a non-empty dataset")
    means = sums / n
    cfg = state.config
    return MetricsReport(model_tag, cfg.compression, cfg.vocab, *means)


def write_report_csv(path, reports) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows([REPORT_COLUMNS] + [r.row() for r in reports])
    tc.write_text(path, buf.getvalue())


def write_report_json(path, reports) -> None:
    payload = [asdict(r) | {"model": r.model_tag} for r in reports]
    for row in payload:
        row.pop("model_tag")
    tc.write_text(path, json.dumps(payload, indent=2))
