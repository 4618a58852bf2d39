"""Training objectives: reconstruction (perceptual + L1), VQ, and hinge GAN.

The generator total is ``alpha * perceptual + beta * l1 + vq + lambda * adv``;
with ``lambda = 0`` the adversarial term is omitted entirely, which makes the
non-adversarial ablation bit-identical to a run without a discriminator.
"""

from __future__ import annotations

import numpy as np

from . import tensorcore as tc
from .errors import ArgumentError, ShapeError
from .tensorcore import Tensor


_FEATURE_WIDTHS = (8, 16, 32, 32)


class FeatureExtractor:
    """Frozen seeded strided-conv feature pyramid standing in for a pretrained
    perceptual network.

    Weights are fixed at construction and never receive gradients; identical
    seeds give identical features.
    """

    def __init__(self, in_channels: int, seed: int = 0):
        self.in_channels = in_channels
        rng = np.random.default_rng(seed)
        self.weights = []
        c_in = in_channels
        for c_out in _FEATURE_WIDTHS:
            scale = np.sqrt(2.0 / (c_in * 27))
            w = rng.normal(0.0, scale, size=(c_out, c_in, 3, 3, 3)).astype(np.float32)
            b = np.zeros(c_out, dtype=np.float32)
            self.weights.append((Tensor(w), Tensor(b)))
            c_in = c_out

    def features(self, x: Tensor) -> list:
        """Activations after each strided conv stage."""
        out = []
        h = x
        for w, b in self.weights:
            wt = w if h.dtype == np.float32 else Tensor(w.data.astype(h.dtype))
            bt = b if h.dtype == np.float32 else Tensor(b.data.astype(h.dtype))
            h = tc.leaky_relu(tc.conv3d(h, wt, bt, stride=2, padding=1))
            out.append(h)
        return out


def l1_loss(x: Tensor, y: Tensor) -> Tensor:
    """Mean absolute difference over all elements."""
    if x.shape != y.shape:
        raise ShapeError(f"l1_loss shape mismatch: {x.shape} vs {y.shape}")
    return tc.tmean(tc.tabs(tc.sub(x, y)))


def perceptual_loss(x: Tensor, y: Tensor, psi: FeatureExtractor) -> Tensor:
    """Per-tap L2 feature distance, each normalized by its feature count."""
    if x.shape != y.shape:
        raise ShapeError(f"perceptual_loss shape mismatch: {x.shape} vs {y.shape}")
    fx = psi.features(x)
    fy = psi.features(y)
    total = None
    for a, b in zip(fx, fy):
        d = tc.sub(a, b)
        norm = tc.mul(tc.sqrt(tc.tsum(tc.mul(d, d))), 1.0 / a.size)
        total = norm if total is None else tc.add(total, norm)
    return total


def hinge_d_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """mean(max(0, 1 - real)) + mean(max(0, 1 + fake))."""
    if d_real.size == 0 or d_fake.size == 0:
        raise ArgumentError("hinge_d_loss requires non-empty batches")
    real_term = tc.tmean(tc.relu(tc.sub(1.0, d_real)))
    fake_term = tc.tmean(tc.relu(tc.add(1.0, d_fake)))
    return tc.add(real_term, fake_term)


def g_loss(d_fake: Tensor) -> Tensor:
    """Generator adversarial objective: negative mean fake logit."""
    if d_fake.size == 0:
        raise ArgumentError("g_loss requires a non-empty batch")
    return tc.mul(tc.tmean(d_fake), -1.0)


def total_generator_loss(perceptual, l1, vq, adv_g,
                         alpha: float, beta: float, lam: float) -> Tensor:
    """alpha * perceptual + beta * l1 + vq + lam * adv_g.

    With lam == 0 the adversarial term is dropped rather than zero-weighted.
    """
    total = tc.add(tc.add(tc.mul(perceptual, alpha), tc.mul(l1, beta)), vq)
    if lam != 0.0:
        if adv_g is None:
            raise ArgumentError("lam > 0 requires an adversarial component")
        total = tc.add(total, tc.mul(adv_g, lam))
    return total

