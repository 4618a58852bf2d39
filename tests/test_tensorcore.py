import errno
import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motok import cli
from motok import heatmap as hm
from motok import metrics as mx
from motok import model as mdl
from motok import quantizer as qz
from motok import tensorcore as tc
from motok.errors import ArgumentError, DataError, ShapeError
from motok.tensorcore import Tape, Tensor, backward

from helpers import FUZZ, check_grads, corrupt, corruptions


def conv3d_reference(x, w, b, stride, padding):
    """Direct 6-nested-loop convolution, the independent oracle."""
    n, c, t, h, wd = x.shape
    co, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, co, to, ho, wo))
    for ni in range(n):
        for oi in range(co):
            for ti in range(to):
                for hi in range(ho):
                    for wi in range(wo):
                        acc = 0.0
                        for ci in range(c):
                            patch = xp[ni, ci,
                                       ti * st:ti * st + kt,
                                       hi * sh:hi * sh + kh,
                                       wi * sw:wi * sw + kw]
                            acc += np.sum(patch * w[oi, ci])
                        out[ni, oi, ti, hi, wi] = acc + b[oi]
    return out


def batched_cols(x, kshape, stride, padding):
    """im2col of every sample at once: cols [N, C*kt*kh*kw, to*ho*wo], and
    the output extents (to, ho, wo)."""
    n, c, t, h, wd = x.shape
    kt, kh, kw = kshape
    st, sh, sw = stride
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = (t + 2 * pt - kt) // st + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    win = np.lib.stride_tricks.sliding_window_view(xp, (kt, kh, kw), axis=(2, 3, 4))
    win = win[:, :, ::st, ::sh, ::sw]
    cols = np.ascontiguousarray(win.transpose(0, 1, 5, 6, 7, 2, 3, 4)
                                .reshape(n, c * kt * kh * kw, to * ho * wo))
    return cols, (to, ho, wo)


def conv3d_batched_reference(x, w, b, stride, padding, g):
    """Whole-batch im2col convolution and its gradients for upstream ``g``.

    Builds ``cols`` for every sample at once and runs batched GEMMs, the
    weight gradient one whole GEMM per sample. ``conv3d`` runs the same sums
    as GEMMs over slabs of output T-planes, which BLAS may round unlike the
    whole GEMM. The forward slabs only split columns, so the bitwise tests pin
    ``out`` equal to this on the shapes they list, and
    ``tools/identity_check.py`` on its runs. The weight gradient's slabs also
    split the sum itself, so where there are several its bytes are pinned to
    ``weight_grad_slabs_reference`` instead, and to this within the splits
    tolerance; the splits test bounds random shapes within it too.
    Returns (out, gx, gw, gb); gb is None without a bias.
    """
    n, c, t, h, wd = x.shape
    co, _, kt, kh, kw = w.shape
    st, sh, sw = stride
    pt, ph, pw = padding
    cols, (to, ho, wo) = batched_cols(x, (kt, kh, kw), stride, padding)
    w2 = w.reshape(co, -1)
    out = np.matmul(w2, cols).reshape(n, co, to, ho, wo)
    if b is not None:
        out += b[None, :, None, None, None]
    g2 = np.ascontiguousarray(g.reshape(n, co, to * ho * wo))
    gw = np.matmul(g2, cols.swapaxes(1, 2)).sum(axis=0).reshape(w.shape)
    dcols = np.matmul(w2.T, g2).reshape(n, c, kt, kh, kw, to, ho, wo)
    gxp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, wd + 2 * pw), dtype=x.dtype)
    for i in range(kt):
        for j in range(kh):
            for k in range(kw):
                gxp[:, :, i:i + to * st:st, j:j + ho * sh:sh, k:k + wo * sw:sw] += \
                    dcols[:, :, i, j, k]
    gx = gxp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd]
    gb = g.sum(axis=(0, 2, 3, 4)) if b is not None else None
    return out, gx, gw, gb


def forward_rows(c, k, to, ho, wo, itemsize):
    """The output T-planes in one of conv3d's slabs, for C input channels,
    a k^3 kernel and [to, ho, wo] outputs."""
    return min(to, max(1, tc._SLAB_BYTES // (c * k ** 3 * ho * wo * itemsize)))


def rel_err(a, e):
    """max|a - e| / max|e|."""
    return np.max(np.abs(a - e)) / np.max(np.abs(e))


def weight_grad_slabs_reference(x, w, stride, padding, g, rows):
    """The weight gradient for upstream ``g`` from the batched ``cols``, summed
    as conv3d sums it: one GEMM per slab of ``rows`` output T-planes, in T
    order within each sample, then in batch order."""
    cols, (to, ho, wo) = batched_cols(x, w.shape[2:], stride, padding)
    n, co = g.shape[:2]
    g2 = g.reshape(n, co, -1)
    gw = None
    for b in range(n):
        for t0 in range(0, to, rows):
            s = slice(t0 * ho * wo, min(to, t0 + rows) * ho * wo)
            part = g2[b, :, s] @ cols[b, :, s].T
            gw = part if gw is None else gw + part
    return gw.reshape(w.shape)


# (kernel, stride, padding) of the model's three conv classes.
CONV_CLASSES = {"k3s1": (3, 1, 1), "k3s2": (3, 2, 1), "k1": (1, 1, 0)}

# An anisotropic k3 conv over odd T/H/W, whose input-gradient stride classes
# differ in size: the padded H of 7 splits into 4 even rows and 3 odd ones.
ANISO = {"k3aniso": ((1, 2, 1), (1, 0, 1), (5, 7, 5))}


def traced(fn):
    """fn()'s result, with the bytes still allocated after it and its peak,
    both counted from just before the call (tracemalloc)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return res, held - before, peak - before


def reference_group_norm(x, g, groups, gain, bias, eps=1e-6):
    """group_norm's output and gradients (x, gain, bias) as plain numpy
    expressions, every temporary a fresh array."""
    n, c = x.shape[:2]
    xg = x.reshape(n, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mu) * inv).reshape(x.shape)
    gshape = (1, c) + (1,) * (x.ndim - 2)
    out = xhat * gain.reshape(gshape) + bias.reshape(gshape)
    axes = (0,) + tuple(range(2, x.ndim))
    ggain = (g * xhat).sum(axis=axes)
    gbias = g.sum(axis=axes)
    dxhat = (g * gain.reshape(gshape)).reshape(n, groups, -1)
    xh = xhat.reshape(n, groups, -1)
    mean_d = dxhat.mean(axis=2, keepdims=True)
    mean_dx = (dxhat * xh).mean(axis=2, keepdims=True)
    gx = (inv * (dxhat - mean_d - xh * mean_dx)).reshape(x.shape)
    return out, (gx.astype(x.dtype, copy=False), ggain, gbias)


def reference_swish(x, g):
    s = 1.0 / (1.0 + np.exp(-x))
    return x * s, (g * (s + x * s * (1.0 - s)),)


def reference_group_norm_swish(x, g, groups, gain, bias, eps=1e-6):
    """group_norm_swish's output and gradients (x, gain, bias):
    reference_swish of reference_group_norm, with swish's gradient cast to
    the norm output's dtype, as the tape casts a gradient to its producer's."""
    y, _ = reference_group_norm(x, g, groups, gain, bias, eps)
    out, (gy,) = reference_swish(y, g)
    _, grads = reference_group_norm(x, gy.astype(y.dtype, copy=False), groups, gain, bias, eps)
    return out, grads


def reference_sigmoid(x, g):
    out = 1.0 / (1.0 + np.exp(-x))
    return out, (g * out * (1.0 - out),)


def reference_relu(x, g):
    mask = x > 0
    return np.where(mask, x, 0).astype(x.dtype), (g * mask,)


def reference_leaky_relu(x, g, slope=0.2):
    mask = x > 0
    out = np.where(mask, x, slope * x).astype(x.dtype)
    return out, (g * np.where(mask, 1.0, slope).astype(x.dtype),)


def reference_upsample(x):
    """Nearest x2 upsample of T, H and W: each voxel repeated 2x2x2 times."""
    return x.repeat(2, axis=2).repeat(2, axis=3).repeat(2, axis=4)


def upsample_conv3d_reference(xv, wv, bv, g):
    """reference_upsample then a k3 p1 conv3d, and its gradients for upstream
    ``g``: (out, gx, gw, gb), gb None without a bias. gx sums the upsampled
    input's gradient over each voxel's eight copies."""
    up = Tensor(reference_upsample(xv), requires_grad=True)
    w = Tensor(wv, requires_grad=True)
    b = None if bv is None else Tensor(bv, requires_grad=True)
    with Tape():
        out = tc.conv3d(up, w, b, padding=1)
        backward(tc.tsum(tc.mul(out, Tensor(g))))
    n, c, t, h, wd = xv.shape
    gx = up.grad.reshape(n, c, t, 2, h, 2, wd, 2).sum(axis=(3, 5, 7))
    return out.data, gx, w.grad, None if b is None else b.grad


class TestConv3d:
    def test_all_ones_kernel(self):
        x = Tensor(np.ones((1, 1, 4, 4, 4)))
        w = Tensor(np.ones((1, 1, 3, 3, 3)))
        b = Tensor(np.zeros(1))
        out = tc.conv3d(x, w, b, stride=1, padding=0)
        assert out.shape == (1, 1, 2, 2, 2)
        assert np.allclose(out.numpy(), 27.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 3, 4, 5)))
        w = Tensor(np.ones((1, 1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = tc.conv3d(x, w, b)
        assert np.array_equal(out.numpy(), x.numpy())

    @pytest.mark.parametrize("stride,padding", [((1, 1, 1), (0, 0, 0)),
                                                ((2, 2, 2), (1, 1, 1)),
                                                ((1, 2, 1), (1, 0, 1))])
    def test_matches_loop_reference(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 6, 4))
        w = rng.normal(size=(4, 3, 3, 3, 3))
        b = rng.normal(size=4)
        got = tc.conv3d(Tensor(x), Tensor(w), Tensor(b),
                        stride=stride, padding=padding).numpy()
        want = conv3d_reference(x, w, b, stride, padding)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        b = rng.normal(size=2)

        def build(xt, wt, bt):
            return tc.tsum(tc.mul(tc.conv3d(xt, wt, bt, stride=2, padding=1),
                                  tc.conv3d(xt, wt, bt, stride=2, padding=1)))

        assert check_grads(build, [x, w, b]) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("conv", sorted(CONV_CLASSES) + sorted(ANISO))
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_batched_reference_bitwise(self, batch, conv, with_bias, dtype):
        if conv in ANISO:
            k, (s, pad, extents) = 3, ANISO[conv]
        else:
            k, s, pad = CONV_CLASSES[conv]
            s, pad, extents = (s,) * 3, (pad,) * 3, (5, 6, 4)
        rng = np.random.default_rng(11)
        xv = rng.normal(size=(batch, 3) + extents).astype(dtype)
        wv = rng.normal(size=(4, 3, k, k, k)).astype(dtype)
        bv = rng.normal(size=4).astype(dtype) if with_bias else None
        x = Tensor(xv, requires_grad=True)
        w = Tensor(wv, requires_grad=True)
        b = Tensor(bv, requires_grad=True) if with_bias else None
        with Tape():
            out = tc.conv3d(x, w, b, stride=s, padding=pad)
            g = rng.normal(size=out.shape).astype(dtype)
            backward(tc.tsum(tc.mul(out, Tensor(g))))
        want = conv3d_batched_reference(xv, wv, bv, s, pad, g)
        got = (out.data, x.grad, w.grad, b.grad if with_bias else None)
        for name, a, e in zip(("out", "gx", "gw", "gb"), got, want):
            if e is None:
                continue
            assert a.dtype == e.dtype, name
            assert np.array_equal(a, e), name

    # f32 inputs whose per-sample cols span several _SLAB_BYTES slabs in
    # forward, the last one partial.
    SLAB_SHAPES = {"k3s1": (2, 4, 19, 40, 40), "k3s2": (2, 4, 37, 80, 80)}

    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("conv", sorted(SLAB_SHAPES))
    def test_slabs_match_batched_reference_bitwise(self, conv, trainable):
        k, s, pad = CONV_CLASSES[conv]
        shape = self.SLAB_SHAPES[conv]
        c = shape[1]
        to, ho, wo = ((e + 2 * pad - k) // s + 1 for e in shape[2:])
        rows = forward_rows(c, k, to, ho, wo, 4)
        assert rows < to and to % rows, "the shape must span several slabs, the last partial"
        rng = np.random.default_rng(12)
        xv = rng.normal(size=shape).astype(np.float32)
        wv = rng.normal(size=(5, c, k, k, k)).astype(np.float32)
        bv = rng.normal(size=5).astype(np.float32)
        x = Tensor(xv, requires_grad=trainable)
        w = Tensor(wv, requires_grad=trainable)
        b = Tensor(bv, requires_grad=trainable)
        g = rng.normal(size=(shape[0], 5, to, ho, wo)).astype(np.float32)
        if trainable:
            with Tape():
                out = tc.conv3d(x, w, b, stride=s, padding=pad)
                backward(tc.tsum(tc.mul(out, Tensor(g))))
        else:
            out = tc.conv3d(x, w, b, stride=s, padding=pad)
        want, whole_gw = self.references(xv, wv, bv, (s,) * 3, (pad,) * 3, g, rows)
        got = (out.data, x.grad, w.grad, b.grad) if trainable else (out.data,)
        for name, a, e in zip(("out", "gx", "gw", "gb"), got, want):
            assert a.dtype == e.dtype, name
            assert np.array_equal(a, e), name
        if trainable:
            assert rel_err(w.grad, whole_gw) <= self.SPLIT_RTOL[np.float32]

    def references(self, xv, wv, bv, s, pad, g, rows):
        """conv3d_batched_reference's (out, gx, gw, gb) with gw summed over
        slabs of ``rows`` output planes, as conv3d sums it, and the whole
        GEMM's gw."""
        out, gx, whole_gw, gb = conv3d_batched_reference(xv, wv, bv, s, pad, g)
        return (out, gx, weight_grad_slabs_reference(xv, wv, s, pad, g, rows), gb), whole_gw

    # The input gradient's slabs hold one tap's C rows of c * hb * wb values a
    # plane, so SLAB_SHAPES' input gradients fit one slab. A slab of two planes
    # makes these span several, the last one partial.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("conv", sorted(CONV_CLASSES) + sorted(ANISO))
    def test_input_grad_slabs_match_batched_reference_bitwise(self, conv, dtype, monkeypatch):
        if conv in ANISO:
            k, (s, pad, extents) = 3, ANISO[conv]
        else:
            k, s, pad = CONV_CLASSES[conv]
            s, pad, extents = (s,) * 3, (pad,) * 3, (9, 8, 8)
        c = 3
        to = (extents[0] + 2 * pad[0] - k) // s[0] + 1
        hb, wb = (-(-(e + 2 * p) // st) for e, p, st in zip(extents[1:], pad[1:], s[1:]))
        assert to > 2 and to % 2, "the input gradient must span several slabs, the last partial"
        monkeypatch.setattr(tc, "_SLAB_BYTES", 2 * c * hb * wb * np.dtype(dtype).itemsize)
        rng = np.random.default_rng(15)
        xv = rng.normal(size=(2, c) + extents).astype(dtype)
        wv = rng.normal(size=(4, c, k, k, k)).astype(dtype)
        x = Tensor(xv, requires_grad=True)
        with Tape():
            out = tc.conv3d(x, Tensor(wv), stride=s, padding=pad)
            g = rng.normal(size=out.shape).astype(dtype)
            backward(tc.tsum(tc.mul(out, Tensor(g))))
        want = conv3d_batched_reference(xv, wv, None, s, pad, g)[1]
        assert x.grad.dtype == want.dtype
        assert np.array_equal(x.grad, want)

    # (conv, [N,C,T,H,W]) whose weight gradient spans several forward slabs:
    # the smoke model's full-resolution k3s1 convs (8 and 16 channels, slabs
    # of 4 and 2 planes), and 19 channels at k3s2 and at half-resolution
    # k3s1, whose slabs of 7 planes leave the last one partial.
    WEIGHT_GRAD_SHAPES = [("k3s1", (2, 8, 16, 32, 32)), ("k3s1", (2, 16, 16, 32, 32)),
                          ("k3s2", (2, 19, 16, 32, 32)), ("k3s1", (2, 19, 8, 16, 16))]

    @pytest.mark.parametrize("conv,shape", WEIGHT_GRAD_SHAPES)
    def test_weight_grad_slabs_match_slab_reference_bitwise(self, conv, shape):
        k, s, pad = CONV_CLASSES[conv]
        c = shape[1]
        to, ho, wo = ((e + 2 * pad - k) // s + 1 for e in shape[2:])
        rows = forward_rows(c, k, to, ho, wo, 4)
        assert rows < to, "the weight gradient must span several slabs"
        rng = np.random.default_rng(14)
        xv = rng.normal(size=shape).astype(np.float32)
        wv = rng.normal(size=(c, c, k, k, k)).astype(np.float32)
        bv = rng.normal(size=c).astype(np.float32)
        g = rng.normal(size=(shape[0], c, to, ho, wo)).astype(np.float32)
        x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv, bv))
        with Tape():
            out = tc.conv3d(x, w, b, stride=s, padding=pad)
            backward(tc.tsum(tc.mul(out, Tensor(g))))
        want, whole_gw = self.references(xv, wv, bv, (s,) * 3, (pad,) * 3, g, rows)
        for name, a, e in zip(("out", "gx", "gw", "gb"), (out.data, x.grad, w.grad, b.grad), want):
            assert a.dtype == e.dtype, name
            assert np.array_equal(a, e), name
        assert rel_err(w.grad, whole_gw) <= self.SPLIT_RTOL[np.float32]

    # Tolerances on max|got - want| / max|want|, from each dtype's epsilon
    # (about 1.2e-7 and 2.2e-16) times a few hundred.
    SPLIT_RTOL = {np.float32: 3e-5, np.float64: 1e-13}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_splits_match_batched_reference(self, dtype):
        # Seeded random shapes whose forward slabs are several, and the
        # 19-channel k3s2 case. A forward slab's GEMM is a column subset of the
        # whole one and a weight-gradient slab's a part of its sum, and BLAS
        # may round a narrow one differently, so only the bitwise tests above
        # pin exact bytes; these shapes must agree within the dtype's tolerance.
        rng = np.random.default_rng(15)
        cases = [("k3s2", (2, 19, 16, 32, 32))]
        while len(cases) < 7:
            conv = ("k3s1", "k3s2", "k1")[rng.integers(3)]
            k, s, pad = CONV_CLASSES[conv]
            shape = (int(rng.integers(1, 3)), int(rng.integers(2, 21)),
                     *(int(v) for v in rng.integers([6, 12, 12], [24, 72, 72]) * s))
            to, ho, wo = ((e + 2 * pad - k) // s + 1 for e in shape[2:])
            ck = shape[1] * k ** 3
            if forward_rows(shape[1], k, to, ho, wo, np.dtype(dtype).itemsize) < to \
                    and ck * to * ho * wo < 2 ** 22:
                cases.append((conv, shape))
        for conv, shape in cases:
            k, s, pad = CONV_CLASSES[conv]
            co = int(rng.integers(1, 21))
            xv = rng.normal(size=shape).astype(dtype)
            wv = rng.normal(size=(co, shape[1], k, k, k)).astype(dtype)
            bv = rng.normal(size=co).astype(dtype)
            x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv, bv))
            with Tape():
                out = tc.conv3d(x, w, b, stride=s, padding=pad)
                g = rng.normal(size=out.shape).astype(dtype)
                backward(tc.tsum(tc.mul(out, Tensor(g))))
            want = conv3d_batched_reference(xv, wv, bv, (s,) * 3, (pad,) * 3, g)
            for name, a, e in zip(("out", "gx", "gw", "gb"), (out.data, x.grad, w.grad, b.grad), want):
                assert a.dtype == e.dtype and a.shape == e.shape, (conv, shape, name)
                err = rel_err(a, e)
                assert err <= self.SPLIT_RTOL[dtype], (conv, shape, name, err)

    def test_forward_keeps_less_than_one_window_of_cols(self):
        # What a trainable k3s1 conv keeps alive after forward on a tape,
        # beyond its output, must stay under one window's im2col columns.
        k, s, pad = CONV_CLASSES["k3s1"]
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 8, 8, 16, 16)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, k, k, k)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        window_cols = 8 * k ** 3 * 8 * 16 * 16 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = tc.conv3d(x, w, b, stride=s, padding=pad)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert held - out.data.nbytes < window_cols

    def test_forward_pads_less_than_one_sample(self):
        # Beyond its output and one slab of cols, forward holds less than half a
        # zero-bordered copy of a sample: only the 6 padded input planes of 18
        # that one slab of 4 output planes reads.
        k, s, pad = CONV_CLASSES["k3s1"]
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 8, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, k, k, k)).astype(np.float32), requires_grad=True)
        ck, plane = 8 * k ** 3, 32 * 32
        rows = tc._SLAB_BYTES // (ck * plane * 4)
        assert rows == 4, "forward must span several slabs"
        padded_sample = 8 * 18 * 34 * 34 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape():
                out = tc.conv3d(x, w, stride=s, padding=pad)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak - out.data.nbytes - ck * rows * plane * 4 < padded_sample // 2

    def test_weight_grad_holds_less_than_one_window_of_cols(self):
        # Backward's peak for a trainable k3s1 conv, weight gradient included,
        # stays under one window's im2col columns, which span several slabs.
        k, s, pad = CONV_CLASSES["k3s1"]
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 8, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, k, k, k)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        window_cols = 8 * k ** 3 * 16 * 32 * 32 * 4
        assert window_cols > 3 * tc._SLAB_BYTES
        with Tape() as tape:
            out = tc.conv3d(x, w, b, stride=s, padding=pad)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gx, gw, gb = tape.nodes[-1].backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (8,)
        assert peak < window_cols

    def test_weight_grad_holds_one_slab_of_cols(self):
        # One channel's columns here (27 taps of 16x64x64 outputs, 6.75 MiB)
        # exceed a slab. A weight-gradient-only backward holds one slab of
        # cols, the padded input planes that slab reads, gw and the GEMM's
        # temporary for it, and 64 KiB of small objects.
        k, s, pad = CONV_CLASSES["k3s1"]
        rng = np.random.default_rng(13)
        n, c, t, h, w = 1, 4, 16, 64, 64
        x = Tensor(rng.normal(size=(n, c, t, h, w)).astype(np.float32))
        wt = Tensor(rng.normal(size=(4, c, k, k, k)).astype(np.float32), requires_grad=True)
        assert k ** 3 * t * h * w * 4 > tc._SLAB_BYTES
        with Tape() as tape:
            out = tc.conv3d(x, wt, stride=s, padding=pad)
        g = rng.normal(size=out.shape).astype(np.float32)
        rows = forward_rows(c, k, t, h, w, 4)
        slab = c * k ** 3 * rows * h * w * 4
        padded = c * (rows + k - 1) * (h + 2) * (w + 2) * 4
        (gx, gw, _), _, peak = traced(lambda: tape.nodes[-1].backward_fn(g))
        assert gx is None and gw.shape == wt.shape
        assert peak <= slab + padded + 2 * gw.nbytes + (64 << 10)

    def test_input_grad_holds_less_than_one_window_of_dcols(self):
        # Backward's peak for the input gradient of a k3s1 conv must stay under
        # one window's input-gradient columns (dcols), which are larger than a
        # slab here. The weight is frozen, as in the perceptual net, so the peak
        # is the input gradient's alone.
        k, s, pad = CONV_CLASSES["k3s1"]
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 8, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, k, k, k)).astype(np.float32))
        window_dcols = 8 * k ** 3 * 16 * 32 * 32 * 4
        assert window_dcols > 3 * tc._SLAB_BYTES
        with Tape() as tape:
            out = tc.conv3d(x, w, stride=s, padding=pad)
        g = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gx, _, _ = tape.nodes[-1].backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape
        assert peak < window_dcols

    def test_input_grad_holds_one_tap_of_one_slab(self):
        # Beyond g, a frozen-weight k3s1 input gradient holds g on the padded
        # plane pitch, one sample's padded gradient, gx, and one tap's C rows
        # of one slab of output planes: no ck-row dcols slab.
        k, s, pad = CONV_CLASSES["k3s1"]
        rng = np.random.default_rng(13)
        n, c, t, h, w = 2, 8, 16, 32, 32
        x = Tensor(rng.normal(size=(n, c, t, h, w)).astype(np.float32), requires_grad=True)
        wt = Tensor(rng.normal(size=(8, c, k, k, k)).astype(np.float32))
        with Tape() as tape:
            out = tc.conv3d(x, wt, stride=s, padding=pad)
        g = rng.normal(size=out.shape).astype(np.float32)
        hw = (h + 2) * (w + 2)
        grid = 8 * t * hw * 4
        classes = c * (t + 2 + 1) * hw * 4
        rows = min(t, max(1, tc._SLAB_BYTES // (c * hw * 4)))
        tap = c * rows * hw * 4
        (gx, _, _), _, peak = traced(lambda: tape.nodes[-1].backward_fn(g))
        assert gx.shape == x.shape
        assert peak <= grid + classes + gx.nbytes + 1.25 * tap

    def test_skips_input_grad_when_input_is_constant(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 4, 4, 4)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            out = tc.conv3d(x, w, b, stride=2, padding=1)
        gx, gw, gb = tape.nodes[-1].backward_fn(np.ones_like(out.data))
        assert gx is None
        assert gw.shape == w.shape and gb.shape == b.shape

    @pytest.mark.parametrize("conv", sorted(CONV_CLASSES))
    def test_skips_frozen_weight_and_bias_grads(self, conv):
        k, s, pad = CONV_CLASSES[conv]
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, k, k, k)))
        b = Tensor(np.zeros(3))
        with Tape() as tape:
            out = tc.conv3d(x, w, b, stride=s, padding=pad)
        gx, gw, gb = tape.nodes[-1].backward_fn(np.ones_like(out.data))
        assert gx.shape == x.shape
        assert gw is None and gb is None

    def test_k1_with_padding(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 2, 3, 4, 3))
        w = rng.normal(size=(3, 2, 1, 1, 1))
        b = rng.normal(size=3)
        got = tc.conv3d(Tensor(x), Tensor(w), Tensor(b), padding=1).numpy()
        assert np.max(np.abs(got - conv3d_reference(x, w, b, (1, 1, 1), (1, 1, 1)))) < 1e-10

        def build(xt, wt, bt):
            out = tc.conv3d(xt, wt, bt, padding=1)
            return tc.tsum(tc.mul(out, out))

        assert check_grads(build, [x, w, b]) < 1e-5

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            tc.conv3d(Tensor(np.zeros((1, 2, 4, 4, 4))),
                      Tensor(np.zeros((1, 3, 3, 3, 3))))

    def test_kernel_too_big(self):
        with pytest.raises(ShapeError, match="axis T"):
            tc.conv3d(Tensor(np.zeros((1, 1, 2, 8, 8))),
                      Tensor(np.zeros((1, 1, 3, 3, 3))))


class TestUpsample:
    """upsample_conv3d against reference_upsample then conv3d."""

    def test_width_doubling(self):
        # The centre tap alone makes the op a nearest x2 upsample.
        x = Tensor(np.array([[1.0, 2.0]]).reshape(1, 1, 1, 1, 2))
        w = np.zeros((1, 1, 3, 3, 3))
        w[0, 0, 1, 1, 1] = 1.0
        out = tc.upsample_conv3d(x, Tensor(w))
        assert out.shape == (1, 1, 2, 2, 4)
        assert np.array_equal(out.numpy().reshape(4, 4), [[1, 1, 2, 2]] * 4)

    def test_rejects_other_kernels(self):
        x = Tensor(np.zeros((1, 2, 2, 2, 2)))
        for shape in ((1, 2, 1, 1, 1), (1, 3, 3, 3, 3)):
            with pytest.raises(ShapeError, match="3,3,3"):
                tc.upsample_conv3d(x, Tensor(np.zeros(shape)))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 2, 2, 2))
        w = rng.normal(size=(3, 2, 3, 3, 3)) * 0.4
        b = rng.normal(size=3)

        def build(xt, wt, bt):
            out = tc.upsample_conv3d(xt, wt, bt)
            return tc.tsum(tc.mul(out, out))

        assert check_grads(build, [x, w, b]) < 1e-5

    def run(self, xv, wv, bv, g):
        """upsample_conv3d's (out, gx, gw, gb) for upstream ``g``; gb is None
        without a bias."""
        x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
        b = None if bv is None else Tensor(bv, requires_grad=True)
        with Tape():
            out = tc.upsample_conv3d(x, w, b)
            backward(tc.tsum(tc.mul(out, Tensor(g))))
        return out.data, x.grad, w.grad, None if b is None else b.grad

    def check(self, shape, co, dtype, with_bias=True):
        rng = np.random.default_rng(16)
        n, c, t, h, w = shape
        xv = rng.normal(size=shape).astype(dtype)
        wv = rng.normal(size=(co, c, 3, 3, 3)).astype(dtype)
        bv = rng.normal(size=co).astype(dtype) if with_bias else None
        g = rng.normal(size=(n, co, 2 * t, 2 * h, 2 * w)).astype(dtype)
        want = upsample_conv3d_reference(xv, wv, bv, g)
        for name, a, e in zip(("out", "gx", "gw", "gb"), self.run(xv, wv, bv, g), want):
            if e is None:
                continue
            assert a.dtype == e.dtype and a.shape == e.shape, name
            err = rel_err(a, e)
            assert err <= TestConv3d.SPLIT_RTOL[dtype], (name, err)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("shape,co", [((2, 5, 3, 2, 4), 7), ((1, 3, 1, 1, 1), 2),
                                          ((2, 8, 4, 5, 3), 4)])
    def test_matches_upsample_then_conv3d(self, shape, co, with_bias, dtype):
        self.check(shape, co, dtype, with_bias)

    def test_slabs_match_upsample_then_conv3d(self):
        # Forward's 8 window planes, the weight gradient's 7 input planes and
        # the input gradient's 8 window planes each span several slabs of 3,
        # the last one partial.
        shape, co = (1, 16, 7, 48, 48), 8
        unit = 8 * 16 * 4
        for planes, plane in ((8, 49 * 49), (7, 48 * 48), (8, 50 * 50)):
            rows = tc._SLAB_BYTES // (unit * plane)
            assert rows == 3 and planes % rows, "each pass must span several slabs, the last partial"
        self.check(shape, co, np.float32)

    def test_one_plane_slabs_match_upsample_then_conv3d(self, monkeypatch):
        monkeypatch.setattr(tc, "_SLAB_BYTES", 1)
        self.check((2, 5, 3, 2, 4), 7, np.float64)

    # The decoder's upsample convs at the smoke width (README config).
    SMOKE_SHAPES = [((2, 64, 2, 4, 4), 32), ((2, 32, 4, 8, 8), 16), ((2, 16, 8, 16, 16), 8)]

    def test_bytes_match_at_1_and_2_blas_threads_bitwise(self):
        # Each in its own process: the folded GEMMs must not round with the
        # BLAS thread count, or training bytes would depend on it.
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from motok import tensorcore as tc\n"
            "from motok.tensorcore import Tape, Tensor, backward\n"
            "digest = hashlib.sha256()\n"
            f"for shape, co in {self.SMOKE_SHAPES!r}:\n"
            "    rng = np.random.default_rng(17)\n"
            "    x, w, b = (Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)\n"
            "               for s in (shape, (co, shape[1], 3, 3, 3), (co,)))\n"
            "    with Tape():\n"
            "        out = tc.upsample_conv3d(x, w, b)\n"
            "        g = Tensor(rng.normal(size=out.shape).astype(np.float32))\n"
            "        backward(tc.tsum(tc.mul(out, g)))\n"
            "    for a in (out.data, x.grad, w.grad, b.grad):\n"
            "        digest.update(a.tobytes())\n"
            "print(digest.hexdigest())\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                       MKL_NUM_THREADS=n, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr[-2000:]
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    MEMORY_SHAPE = (1, 4, 16, 64, 64)

    def memory_case(self, x_grad):
        """A [1,4,16,64,64] -> 4 upsample_conv3d on a tape, backward's
        upstream gradient, and the same through reference_upsample and
        conv3d. Here the k3 conv's columns of one upsampled output plane
        (7 MiB) exceed a slab."""
        rng = np.random.default_rng(18)
        xv = rng.normal(size=self.MEMORY_SHAPE).astype(np.float32)
        wv = rng.normal(size=(4, 4, 3, 3, 3)).astype(np.float32)
        assert 27 * 4 * 128 * 128 * 4 > tc._SLAB_BYTES
        with Tape() as tape:
            out = tc.upsample_conv3d(Tensor(xv, requires_grad=x_grad),
                                     Tensor(wv, requires_grad=not x_grad))
        with Tape() as ref_tape:
            tc.conv3d(Tensor(reference_upsample(xv), requires_grad=x_grad),
                      Tensor(wv, requires_grad=not x_grad), padding=1)
        g = rng.normal(size=out.shape).astype(np.float32)
        return tape.nodes[-1].backward_fn, ref_tape.nodes[-1].backward_fn, g

    def test_weight_grad_holds_one_slab_of_cols(self):
        # A weight-gradient-only backward holds one slab of one phase's
        # columns, the padded input planes that slab reads, that phase's
        # output gradient over the slab (Co/8C of the columns), gw, the phase
        # kernels' gradients and 64 KiB of small objects. Upsampling then
        # conv3d holds one upsampled plane's columns, more than that.
        bwd, ref_bwd, g = self.memory_case(x_grad=False)
        n, c, t, h, w = self.MEMORY_SHAPE
        rows = tc._SLAB_BYTES // (8 * c * 4 * h * w)
        slab = 8 * c * rows * h * w * 4
        bound = slab + c * (rows + 2) * (h + 2) * (w + 2) * 4 + slab // 8 + (64 << 10)
        (gx, gw, _), _, peak = traced(lambda: bwd(g))
        assert gx is None and gw.shape == (4, c, 3, 3, 3)
        assert peak <= bound
        (_, ref_gw, _), _, ref_peak = traced(lambda: ref_bwd(g))
        assert ref_peak > bound
        assert rel_err(gw, ref_gw) <= TestConv3d.SPLIT_RTOL[np.float32]

    def test_input_grad_holds_one_slab_and_one_padded_sample(self):
        # An input-gradient-only backward holds, beyond g: the output gradient
        # on one slab's windows and the GEMM result over them (at most a slab
        # each), one sample's padded gradient, gx and 64 KiB. Upsampling then
        # conv3d holds the upsampled input's gradient, more than that.
        bwd, ref_bwd, g = self.memory_case(x_grad=True)
        n, c, t, h, w = self.MEMORY_SHAPE
        padded = c * (t + 3) * (h + 2) * (w + 2) * 4
        bound = 2 * tc._SLAB_BYTES + padded + n * c * t * h * w * 4 + (64 << 10)
        (gx, gw, _), _, peak = traced(lambda: bwd(g))
        assert gw is None and gx.shape == self.MEMORY_SHAPE
        assert peak <= bound
        (ref_gx, _, _), _, ref_peak = traced(lambda: ref_bwd(g))
        assert ref_peak > bound
        ref_gx = ref_gx.reshape(n, c, t, 2, h, 2, w, 2).sum(axis=(3, 5, 7))
        assert rel_err(gx, ref_gx) <= TestConv3d.SPLIT_RTOL[np.float32]


class TestElementwise:
    def test_relu(self):
        assert tc.relu(Tensor([-1.5])).numpy()[0] == 0.0

    def test_leaky_relu(self):
        assert np.isclose(tc.leaky_relu(Tensor([-1.0])).numpy()[0], -0.2)

    def test_scalar_broadcast(self):
        out = tc.add(Tensor([1.0, 2.0]), 1.0)
        assert np.array_equal(out.numpy(), [2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tc.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_swish_gradcheck(self):
        # Swish as group_norm_swish runs it, on a spread-out gain and bias.
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 2, 4))
        gain = rng.normal(size=2) * 2.0
        bias = rng.normal(size=2)

        def build(xt, gt, bt):
            return tc.tsum(tc.group_norm_swish(xt, 2, gt, bt))

        assert check_grads(build, [x, gain, bias]) < 1e-5

    @pytest.mark.parametrize("op", [tc.add, tc.sub, tc.mul])
    def test_binary_gradcheck(self, op):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6,))
        b = rng.normal(size=(6,))

        def build(at, bt):
            return tc.tsum(tc.mul(op(at, bt), op(at, bt)))

        assert check_grads(build, [a, b]) < 1e-5


class TestGroupNorm:
    def test_constant_input_gives_bias(self):
        x = Tensor(np.full((2, 4, 3, 3, 3), 5.0))
        gain = Tensor(np.ones(4))
        bias = Tensor(np.arange(4.0))
        out = tc.group_norm_swish(x, 2, gain, bias)
        want, _ = reference_swish(np.arange(4.0)[None, :, None, None, None], 0.0)
        want = np.broadcast_to(want, x.shape)
        assert np.max(np.abs(out.numpy() - want)) < 1e-3

    def test_standardized_passthrough(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 6, 6))
        x = (x - x.mean()) / x.std()
        out = tc.group_norm_swish(Tensor(x), 1, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        assert np.max(np.abs(out.numpy() - reference_swish(x, 0.0)[0])) < 1e-3

    def test_indivisible_groups(self):
        with pytest.raises(ArgumentError):
            tc.group_norm_swish(Tensor(np.zeros((1, 5, 2, 2))), 2,
                                Tensor(np.ones(5)), Tensor(np.zeros(5)))

    def test_gradcheck(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 4, 3, 3))
        gain = rng.normal(size=4)
        bias = rng.normal(size=4)

        def build(xt, gt, bt):
            out = tc.group_norm_swish(xt, 2, gt, bt)
            return tc.tsum(tc.mul(out, out))

        assert check_grads(build, [x, gain, bias]) < 1e-4


class TestActivationMemory:
    # Odd extents, so every SIMD loop has a tail; two groups of two channels.
    SHAPE = (3, 4, 5, 7, 9)
    # 512 KiB at f32: numpy's broadcasting ufuncs take a fixed buffer of about
    # 32 KiB, which must stay small against the output.
    SMALL = (2, 4, 16, 32, 32)
    GAIN, BIAS = np.linspace(-1.5, 2.0, 4), np.linspace(0.5, -0.25, 4)
    OPS = {
        "group_norm_swish": (lambda x, p: tc.group_norm_swish(x, 2, *p),
                             lambda x, g, p: reference_group_norm_swish(
                                 x, g, 2, *(t.data for t in p))),
        "sigmoid": (lambda x, p: tc.sigmoid(x), lambda x, g, p: reference_sigmoid(x, g)),
        "relu": (lambda x, p: tc.relu(x), lambda x, g, p: reference_relu(x, g)),
        "leaky_relu": (lambda x, p: tc.leaky_relu(x), lambda x, g, p: reference_leaky_relu(x, g)),
    }

    def params(self, dtype):
        return (Tensor(self.GAIN.astype(dtype), requires_grad=True),
                Tensor(self.BIAS.astype(dtype), requires_grad=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_matches_reference_expressions_bitwise(self, op, dtype):
        # Forward and every gradient equal the plain expressions byte for byte,
        # dtype included, with +-0 and +-inf in the input. Infinities sit in
        # the first group of the first sample, which the norm turns to NaN.
        rng = np.random.default_rng(43)
        x = (rng.normal(size=self.SHAPE) * 4).astype(dtype)
        x.flat[:6] = [np.inf, -np.inf, 0.0, -0.0, 40.0, -100.0]
        x[1, :, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        g = rng.normal(size=self.SHAPE).astype(dtype)
        g.flat[-2:] = [0.0, -0.0]
        fn, ref = self.OPS[op]
        p = self.params(dtype)
        with np.errstate(all="ignore"):
            with Tape() as tape:
                out = fn(Tensor(x, requires_grad=True), p)
            grads = tape.nodes[-1].backward_fn(g)
            want_out, want_grads = ref(x, g, p)
        for got, want in zip((out.data,) + tuple(grads), (want_out,) + want_grads):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_group_norm_swish_matches_composition_bitwise(self, dtype):
        # The fused node's output and the gradients a whole backward gives x,
        # gain and bias equal those of the reference composition, the plain
        # group norm then swish, byte for byte.
        rng = np.random.default_rng(46)
        x = (rng.normal(size=self.SHAPE) * 4).astype(dtype)
        x.flat[:6] = [np.inf, -np.inf, 0.0, -0.0, 40.0, -100.0]
        x[1, :, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        g = Tensor(rng.normal(size=self.SHAPE).astype(dtype))
        g.data.flat[-2:] = [0.0, -0.0]
        xt, p = Tensor(x, requires_grad=True), self.params(dtype)
        with np.errstate(all="ignore"):
            with Tape():
                out = tc.group_norm_swish(xt, 2, *p)
                backward(tc.tsum(tc.mul(out, g)))  # out's gradient is g
            want_out, want_grads = reference_group_norm_swish(x, g.data, 2, *(t.data for t in p))
        results = [(want_out,) + want_grads, (out.data, xt.grad) + tuple(t.grad for t in p)]
        for want, got in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", ["group_norm_swish", "sigmoid"])
    def test_tape_keeps_no_more_than_the_output(self, op):
        # Beyond its input, the node keeps about its output: group_norm_swish
        # no xhat, y or sigmoid, sigmoid only the output itself.
        x = Tensor(np.random.default_rng(44).normal(size=self.SMALL).astype(np.float32),
                   requires_grad=True)
        p = self.params(np.float32)

        def run():
            with Tape() as tape:
                out = self.OPS[op][0](x, p)
            return tape, out

        (tape, out), held, _ = traced(run)
        assert len(tape.nodes) == 1
        assert held <= 1.25 * out.data.nbytes

    @pytest.mark.parametrize("op", ["sigmoid"])
    def test_forward_peak_without_tape_is_one_output(self, op):
        x = Tensor(np.random.default_rng(45).normal(size=self.SMALL).astype(np.float32))
        p = self.params(np.float32)
        out, _, peak = traced(lambda: self.OPS[op][0](x, p))
        assert peak <= 1.25 * out.data.nbytes

    def test_group_norm_swish_forward_peak_is_two_outputs(self):
        # Beyond its input, forward holds the affine output and its sigmoid,
        # which becomes the output.
        x = Tensor(np.random.default_rng(45).normal(size=self.SMALL).astype(np.float32))
        p = self.params(np.float32)
        out, _, peak = traced(lambda: self.OPS["group_norm_swish"][0](x, p))
        assert peak <= 2.25 * out.data.nbytes


class TestStopGradient:
    def test_forward_identity(self):
        assert tc.stop_gradient(Tensor([3.0])).numpy()[0] == 3.0

    def test_product_rule_half(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        with Tape():
            y = tc.tsum(tc.mul(x, tc.stop_gradient(x)))
            backward(y)
        assert np.array_equal(x.grad, [2.0])

    def test_blocked_branch_zero(self):
        z = Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
        e = Tensor([0.5, 0.5], requires_grad=True, dtype=np.float64)
        with Tape():
            d = tc.sub(tc.stop_gradient(z), e)
            loss = tc.tsum(tc.mul(d, d))
            backward(loss)
        assert z.grad is None
        assert np.allclose(e.grad, [-1.0, 5.0])


class TestBackward:
    def test_sum_grad_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
        with Tape():
            backward(tc.tsum(x))
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        with Tape():
            backward(tc.tsum(tc.mul(x, x)))
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ArgumentError):
            with Tape():
                backward(tc.mul(x, x))

    def test_composite_graph_gradcheck(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(1, 2, 4, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3, 3))
        gain = rng.normal(size=2)
        bias = rng.normal(size=2)

        def build(xt, wt, gt, bt):
            h = tc.conv3d(xt, wt, stride=1, padding=1)
            h = tc.group_norm_swish(h, 1, gt, bt)
            return tc.tsum(tc.relu(h))

        assert check_grads(build, [x, w, gain, bias], h=1e-5) < 1e-4

    def test_deterministic_backward(self):
        rng = np.random.default_rng(29)
        xv = rng.normal(size=(1, 2, 4, 4, 4))
        wv = rng.normal(size=(2, 2, 3, 3, 3))
        grads = []
        for _ in range(2):
            x = Tensor(xv, requires_grad=True, dtype=np.float64)
            w = Tensor(wv, requires_grad=True, dtype=np.float64)
            with Tape():
                out = tc.conv3d(x, w, padding=1)
                backward(tc.tsum(tc.mul(out, tc.sigmoid(out))))
            grads.append((x.grad.copy(), w.grad.copy()))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


class TestTape:
    def test_backward_frees_activations(self):
        # After backward over a chain of six ops, still inside the tape, only
        # the last activation (which the test holds) outlives the leaves and
        # their gradients; the tape keeps its node count.
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(2, 4, 8, 16, 16)).astype(np.float32), requires_grad=True)
        gain = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                h = tc.group_norm_swish(x, 2, gain, bias)
                for op in (tc.leaky_relu, tc.sigmoid, tc.leaky_relu):
                    h = op(h)
                h = tc.group_norm_swish(h, 2, gain, bias)
                backward(tc.tmean(h))
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 6
        leaf_grads = x.grad.nbytes + gain.grad.nbytes + bias.grad.nbytes
        assert held - leaf_grads <= 1.25 * x.data.nbytes

    def test_spent_tape_backward_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            loss = tc.tsum(tc.mul(x, x))
            backward(loss)
            with pytest.raises(ArgumentError, match="already ran"):
                tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_tape_keeps_only_what_backward_reads(self):
        # conv3d keeps its input, here a leaf; leaky_relu its mask; the
        # residual add and the mean only shapes. So after forward the tape
        # holds about the mask, a quarter of one activation, and no output.
        rng = np.random.default_rng(47)
        x = Tensor(rng.normal(size=(2, 4, 16, 32, 32)).astype(np.float32), requires_grad=True)
        w = Tensor((rng.normal(size=(4, 4, 3, 3, 3)) * 0.1).astype(np.float32),
                   requires_grad=True)

        def forward():
            h = tc.leaky_relu(tc.conv3d(x, w, padding=1))
            return tc.tmean(tc.add(x, h))

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = forward()
                held = tracemalloc.get_traced_memory()[0] - before
                backward(loss)
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 4
        assert held <= 0.5 * x.data.nbytes
        assert x.grad is not None and w.grad is not None

    # group_norm_swish -> conv3d -> upsample_conv3d, the decoder's pattern.
    CHAIN = (2, 5, 8, 16, 16)

    def chain(self, dtype, materialise=False):
        """The chain's leaves and its forward. With ``materialise`` each conv
        input passes through a reshape node, which offers no ``remake``, so
        the conv3d keeps its input array instead."""
        rng = np.random.default_rng(49)
        c = self.CHAIN[1]
        leaves = [Tensor(rng.normal(size=self.CHAIN).astype(dtype), requires_grad=True),
                  Tensor(np.linspace(0.5, 1.5, c).astype(dtype), requires_grad=True),
                  Tensor(np.linspace(-0.2, 0.3, c).astype(dtype), requires_grad=True),
                  Tensor((rng.normal(size=(c, c, 3, 3, 3)) * 0.2).astype(dtype),
                         requires_grad=True),
                  Tensor((rng.normal(size=(3, c, 3, 3, 3)) * 0.2).astype(dtype),
                         requires_grad=True)]
        x, gain, bias, w1, w2 = leaves
        feed = (lambda h: tc.reshape(h, h.shape)) if materialise else (lambda h: h)

        def forward():
            h = tc.group_norm_swish(x, 1, gain, bias)
            h = tc.conv3d(feed(h), w1, padding=1)
            return tc.upsample_conv3d(feed(h), w2)

        return leaves, forward

    def test_conv_keeps_what_its_input_is_made_from(self):
        # The conv3d keeps the norm's remake, and upsample_conv3d its input:
        # one activation of x's size. A conv3d that kept its input would hold
        # the norm's output besides.
        (x, *_), forward = self.chain(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = tc.tmean(forward())
                held = tracemalloc.get_traced_memory()[0] - before
                backward(loss)
        finally:
            tracemalloc.stop()
        assert held <= 1.25 * x.data.nbytes
        assert all(node.remake is None for node in tape.nodes)
        assert x.grad is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_remade_conv_inputs_match_materialised_bitwise(self, dtype):
        results = []
        for materialise in (False, True):
            leaves, forward = self.chain(dtype, materialise=materialise)
            with Tape():
                out = forward()
                g = np.random.default_rng(50).normal(size=out.shape).astype(dtype)
                backward(tc.tsum(tc.mul(out, Tensor(g))))
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_remade_conv_inputs_add_at_most_one_activation_to_backward_peak(self):
        # Backward rebuilds a conv's input only in its weight-gradient branch,
        # and drops it before the input gradient's buffers are made.
        peaks = []
        for materialise in (False, True):
            _, forward = self.chain(np.float32, materialise=materialise)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                with Tape():
                    loss = tc.tmean(forward())
                    tracemalloc.reset_peak()
                    backward(loss)
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        activation = np.prod(self.CHAIN) * 4  # the norm's output
        assert peaks[0] <= peaks[1] + activation

    @pytest.mark.parametrize("op", ["group_norm_swish-float32", "group_norm_swish-float64"])
    def test_remake_rebuilds_the_output(self, op):
        # The _Node contract: remake() is the output byte for byte.
        dtype = op.split("-")[1]
        (x, gain, bias, *_), _ = self.chain(np.dtype(dtype))
        with Tape() as tape:
            out = tc.group_norm_swish(x, 1, gain, bias)
        remade = tape.nodes[-1].remake()
        assert remade.dtype == out.dtype and remade.tobytes() == out.data.tobytes()

    def test_tensor_from_another_tape_is_a_leaf(self):
        x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        with Tape():
            y = tc.mul(x, x)
            backward(tc.tsum(y))
        # y was made on a spent tape: on a new one it is a leaf.
        with Tape():
            backward(tc.tsum(tc.mul(y, y)))
        assert np.array_equal(y.grad, [2.0, 8.0])
        assert np.array_equal(x.grad, [2.0, 4.0])
        # A loss no node of the tape made gets a gradient of one, tracked on
        # an outer tape or not tracked at all; nothing reaches past it.
        z = Tensor([0.0, 3.0], requires_grad=True, dtype=np.float64)
        leaf = Tensor(5.0, requires_grad=True, dtype=np.float64)
        with Tape():
            outer = tc.tsum(tc.mul(z, z))
            with Tape():
                tc.mul(z, 2.0)
                backward(outer)
            with Tape():
                tc.mul(z, 2.0)
                backward(leaf)
        assert outer.grad == 1.0 and leaf.grad == 1.0
        assert z.grad is None

    def test_abandoned_tape_frees_activations(self):
        # A step left by an exception before backward: no reference cycle
        # keeps its nodes, so refcounting alone frees every activation.
        rng = np.random.default_rng(48)
        x = Tensor(rng.normal(size=(2, 8, 8, 16, 16)).astype(np.float32), requires_grad=True)
        w = Tensor((rng.normal(size=(8, 8, 3, 3, 3)) * 0.1).astype(np.float32),
                   requires_grad=True)
        gain = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)

        def step():
            with Tape():
                h = tc.group_norm_swish(x, 2, gain, bias)
                h = tc.add(x, tc.conv3d(h, w, padding=1))
                tc.tmean(tc.leaky_relu(h))
                raise RuntimeError("abandoned")

        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            try:
                step()
            except RuntimeError:
                pass
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held <= 0.05 * x.data.nbytes


class TestTakeRows:
    def test_gather_and_scatter(self):
        m = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True, dtype=np.float64)
        with Tape():
            sel = tc.take_rows(m, np.array([1, 1, 3]))
            backward(tc.tsum(sel))
        assert np.array_equal(sel.numpy(), [[2, 3], [2, 3], [6, 7]])
        assert np.array_equal(m.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])


class TestTensorFile:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, tmp_path, dtype):
        rng = np.random.default_rng(31)
        arr = rng.normal(size=(2, 3, 4)).astype(dtype)
        p = tmp_path / "t.mht"
        tc.save_tensor(p, arr)
        back = tc.load_tensor(p)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mht"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            tc.load_tensor(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.mht"
        tc.save_tensor(p, np.zeros((4, 4)))
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(DataError):
            tc.load_tensor(p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_truncation_is_data_error(self, tmp_path, dtype):
        p = tmp_path / "t.mht"
        tc.save_tensor(p, np.ones((2, 1, 3), dtype=dtype))
        blob = p.read_bytes()
        for n in range(len(blob)):
            p.write_bytes(blob[:n])
            with pytest.raises(DataError):
                tc.load_tensor(p)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @FUZZ
    @given(data=st.data())
    def test_corrupt_file_loads_or_is_data_error(self, tmp_path, dtype, data):
        p = tmp_path / "t.mht"
        tc.save_tensor(p, np.arange(6, dtype=dtype).reshape(2, 1, 3))
        blob = p.read_bytes()
        p.write_bytes(corrupt(blob, data.draw(corruptions(len(blob)))))
        try:
            tc.load_tensor(p)
        except DataError:
            pass


class _DiskFull:
    """Stands in for ``open``: its files take one write and then fail, as on
    a disk that fills up partway through a write."""

    def __init__(self, path, mode):
        self.f = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        if self.writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes += 1
        return self.f.write(b)


# The artifact writers, binary and text, each with the data of an old and a
# new file.
WRITERS = {
    "csv": lambda p, v: mx.write_report_csv(p, [mx.MetricsReport("VQ-GAN", "F8", 32, v, v, v, v, v)]),
    "json": lambda p, v: mx.write_report_json(p, [mx.MetricsReport("VQ-GAN", "F8", 32, v, v, v, v, v)]),
    "jsonl": lambda p, v: hm.save_keypoints(p, hm.KeypointSequence(np.full((3, 2, 2), v))),
    "manifest": lambda p, v: cli.write_manifest(p, "synth", {"v": v}, v, [], [], 0.0),
    "mht": lambda p, v: tc.save_tensor(p, np.full((2, 3), v, dtype=np.float32)),
    "mtk": lambda p, v: qz.save_tokens(p, qz.TokenGrid((1, 2, 2), np.full((1, 2, 2), v), 32)),
    "mck": lambda p, v: mdl.save_checkpoint(p, mdl.build(mdl.ModelConfig(
        compression="F8", vocab=32, embed_dim=8, base_channels=8, in_channels=2,
        input_extents=(8, 16, 16)), seed=v)),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, kind):
        p = tmp_path / f"a.{kind}"
        WRITERS[kind](p, 1)
        old = p.read_bytes()
        monkeypatch.setattr(tc, "open", _DiskFull, raising=False)
        with pytest.raises(OSError, match="No space"):
            WRITERS[kind](p, 2)
        assert p.read_bytes() == old
        assert [q.name for q in tmp_path.iterdir()] == [p.name]

    def test_replaces_old_file(self, tmp_path):
        p = tmp_path / "a.mht"
        WRITERS["mht"](p, 1)
        WRITERS["mht"](p, 2)
        assert np.all(tc.load_tensor(p) == 2)
        assert [q.name for q in tmp_path.iterdir()] == [p.name]
