"""N-dimensional tensor with tape-based reverse-mode automatic differentiation.

Tensors wrap row-major numpy buffers (f32 for training, f64 for verification).
Operations executed while a :class:`Tape` is active are recorded; ``backward``
replays the tape in exact reverse creation order, so gradient accumulation is
deterministic and two backward passes over identical tapes are bit-identical.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, DataError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

class Tensor:
    """Dense row-major tensor, optionally tracking gradients."""

    __slots__ = ("data", "requires_grad", "grad", "node")  # node: its producer, None for a leaf

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[_Node] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op. It keeps what backward reads and nothing else: its
    inputs, each the node on the same tape that produced it or else the leaf
    Tensor itself; its tape's ``key``; its output's dtype; and its backward
    function, with whatever state that function saved. It keeps no output, so
    an activation lives only while Python code or a backward that reads its
    data holds it.

    ``remake``, when the op offers one, takes no arguments and rebuilds the
    output byte for byte from state the node keeps anyway. A conv3d fed by
    such a node keeps the ``remake`` instead of its input."""

    __slots__ = ("inputs", "tape_key", "dtype", "backward_fn", "remake")
    requires_grad = True  # like any tracked Tensor, for code that reads inputs

    def __init__(self, inputs: Sequence, tape_key: object, dtype,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
                 remake: Optional[Callable[[], np.ndarray]] = None):
        self.inputs = tuple(inputs)
        self.tape_key = tape_key
        self.dtype = dtype
        self.backward_fn = backward_fn
        self.remake = remake


class Tape:
    """Single-owner record of operations, replayed in reverse for backward."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.spent = False
        # Nodes carry this, not the tape: a reference back would be a cycle,
        # and only the garbage collector would free an abandoned tape.
        self.key = object()

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack.pop()
        assert popped is self
        return False

    def _source(self, t: Tensor):
        """The node of this tape that produced ``t``, or ``t`` itself when it
        is a leaf here: untracked, or made on another tape."""
        node = t.node
        return node if node is not None and node.tape_key is self.key else t

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``grad`` of every leaf reachable
        from ``loss`` that requires a gradient.

        A leaf is a tensor no node on this tape produced. ``.grad`` lands on
        leaves only: gradients are routed by producer node, and each node's
        output gradient is dropped once the node has consumed it, so
        intermediates, the loss among them, get none.

        A node keeps its producer links, its backward's saved state and its
        ``remake``, no output. As soon as it has run, or been skipped because
        no gradient reached it, all three are dropped, so saved activations
        are freed as backward walks back. ``nodes`` keeps its length. A
        second backward on the spent tape raises ArgumentError.
        """
        if loss.size != 1:
            raise ArgumentError(f"backward requires a scalar loss, got shape {loss.shape}")
        if self.spent:
            raise ArgumentError("backward already ran on this tape, and its nodes are freed")
        self.spent = True
        start = self._source(loss)
        grads: dict[int, tuple] = {id(start): (start, np.ones_like(loss.data))}
        for node in reversed(self.nodes):
            entry = grads.pop(id(node), None)
            if entry is not None:
                in_grads = node.backward_fn(entry[1])
                for src, g in zip(node.inputs, in_grads):
                    if g is None or not src.requires_grad:
                        continue
                    key = id(src)
                    if key in grads:
                        grads[key] = (src, grads[key][1] + g)
                    else:
                        grads[key] = (src, g.astype(src.dtype, copy=False))
                entry = in_grads = src = g = None  # not kept alive into the next node
            node.inputs = node.backward_fn = node.remake = None
        for tensor, g in grads.values():
            if tensor.requires_grad:
                tensor.grad = g if tensor.grad is None else tensor.grad + g


_tape_stack: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _tape_stack[-1] if _tape_stack else None


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation on the innermost active tape."""
    tape = active_tape()
    if tape is None or not tape.nodes:
        raise ArgumentError("backward requires a non-empty active tape")
    tape.backward(loss)


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn,
            remake=None) -> Tensor:
    """``out_data`` as a Tensor, tracked on the active tape when an input
    requires a gradient. Its node keeps producer links, ``backward_fn``'s
    saved state and ``remake``, not the output; ``backward_fn`` captures the
    arrays it reads, and only shapes and dtypes of the Tensors whose data it
    does not."""
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = track
    out.grad = None
    out.node = None
    if track:
        out.node = _Node([tape._source(t) for t in inputs], tape.key, out_data.dtype,
                         backward_fn, remake)
        tape.nodes.append(out.node)
    return out


def _coerce_pair(a, b):
    """Promote scalars; enforce equal shapes or scalar broadcast only."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"elementwise op needs equal shapes or a scalar, got {a.shape} vs {b.shape}")
    return a, b


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    if int(np.prod(shape, dtype=np.int64)) == 1:
        return np.sum(grad).reshape(shape)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data + b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return _record((a, b), out, bwd)


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data - b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _reduce_to(g, sa), _reduce_to(-g, sb)

    return _record((a, b), out, bwd)


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = a.data * b.data

    def bwd(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return _record((a, b), out, bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, 0)

    def bwd(g):
        return (g * mask,)

    return _record((x,), out, bwd)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, slope * x.data).astype(x.dtype, copy=False)
    dtype = x.dtype

    def bwd(g):
        return (np.where(mask, g, g * dtype.type(slope)),)

    return _record((x,), out, bwd)


def _into(buf: np.ndarray, ufunc, *args) -> np.ndarray:
    """``ufunc(*args)``, written into ``buf``, an array of the result's shape
    that is no longer needed, when it has the result's dtype too; into a new
    array otherwise. Either way the bytes are those of a fresh result."""
    return ufunc(*args, out=buf if buf.dtype == np.result_type(*args) else None)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)), computed in one new array."""
    s = np.negative(a)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    return np.divide(1.0, s, out=s)


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)). The node keeps only its output."""
    out = _sigmoid(x.data)

    def bwd(g):
        gx = g * out
        return (np.multiply(gx, np.subtract(1.0, out), out=gx),)

    return _record((x,), out, bwd)


def tabs(x: Tensor) -> Tensor:
    out = np.abs(x.data)

    def bwd(g):
        return (g * np.sign(x.data),)

    return _record((x,), out, bwd)


def sqrt(x: Tensor) -> Tensor:
    """Square root with zero subgradient at zero (safe for norm-of-equal-inputs)."""
    out = np.sqrt(x.data)
    dtype = x.dtype

    def bwd(g):
        denom = np.where(out > 0, 2.0 * out, 1.0)
        return (np.where(out > 0, g / denom, 0.0).astype(dtype),)

    return _record((x,), out, bwd)


def tsum(x: Tensor) -> Tensor:
    out = np.asarray(np.sum(x.data), dtype=x.dtype)
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        return (np.full(shape, g, dtype=dtype),)

    return _record((x,), out, bwd)


def tmean(x: Tensor) -> Tensor:
    out = np.asarray(np.mean(x.data), dtype=x.dtype)
    shape, dtype, size = x.shape, x.dtype, x.size

    def bwd(g):
        return (np.full(shape, g / size, dtype=dtype),)

    return _record((x,), out, bwd)


def row_mean(x: Tensor) -> Tensor:
    """Mean over axis 1 of a 2-D tensor -> [N]."""
    if x.data.ndim != 2:
        raise ShapeError(f"row_mean needs a 2-D tensor, got rank {x.data.ndim}")
    n, per = x.shape
    out = x.data.mean(axis=1)

    def bwd(g):
        return (np.repeat(g[:, None] / per, per, axis=1),)

    return _record((x,), out, bwd)


def reshape(x: Tensor, shape) -> Tensor:
    out = x.data.reshape(shape)
    in_shape = x.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _record((x,), out, bwd)


def moveaxis(x: Tensor, src: int, dst: int) -> Tensor:
    out = np.ascontiguousarray(np.moveaxis(x.data, src, dst))

    def bwd(g):
        return (np.ascontiguousarray(np.moveaxis(g, dst, src)),)

    return _record((x,), out, bwd)


def stop_gradient(x: Tensor) -> Tensor:
    """Identity forward, blocks all gradient flow backward."""
    return Tensor(x.data.copy())


def take_rows(matrix: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather from a 2-D tensor; backward scatter-adds into the matrix."""
    if matrix.data.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D tensor, got rank {matrix.data.ndim}")
    idx = np.asarray(indices, dtype=np.int64)
    out = matrix.data[idx]

    def bwd(g):
        gm = np.zeros_like(matrix.data)
        np.add.at(gm, idx, g)
        return (gm,)

    return _record((matrix,), out, bwd)


def _triple(v, name: str) -> tuple:
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ArgumentError(f"{name} must be an int or length-3 tuple")
    return t


# Bytes of im2col columns built per GEMM. A slab this size is still in
# cache when the GEMM reads it; the whole columns of one 8-channel 32x64x64
# sample (about 100 MB) are not.
_SLAB_BYTES = 4 << 20


def _padded_planes(c, span, h, w, ph, pw, dtype):
    """A zero-bordered buffer xs [C, span, h+2ph, w+2pw] for ``span`` input
    planes, and ``fill(xb, q0)``, which copies planes q0, q0+1, ... of one
    sample xb [C,T,H,W] into it, zero where they fall outside [0, T)."""
    xs = np.zeros((c, span, h + 2 * ph, w + 2 * pw), dtype=dtype)
    inner = xs[:, :, ph:ph + h, pw:pw + w]

    def fill(xb, q0):
        a = min(max(0, -q0), span)
        e = max(a, min(span, xb.shape[1] - q0))  # planes [a, e) hold input, the rest are T border
        xs[:, :a] = 0
        inner[:, a:e] = xb[:, q0 + a:q0 + e]
        xs[:, e:] = 0

    return xs, fill


def conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0) -> Tensor:
    """3-D convolution over [N,C,T,H,W] with [Co,C,kt,kh,kw] kernels.

    Forward and backward loop over the batch. Forward and the weight gradient
    share one im2col lowering: each sample into ``cols`` [C*kt*kh*kw,
    r*ho*wo], a slab of ``rows`` output T-planes at a time. Forward GEMMs each
    slab into its columns of the output; the weight gradient sums each slab's
    GEMM into ``gw`` in T order within each sample, then in batch order.
    Memory contract, beyond the inputs, the output and the gradients, all in
    buffers reused for every slab and sample:

    - Forward keeps nothing for backward but its inputs, and not even ``x``
      when the node that made ``x`` offers a ``remake``: then it keeps that
      instead.
    - Each run of the lowering holds one slab of ``cols`` (about
      ``_SLAB_BYTES``, or one output plane's) and the zero-bordered input
      planes that slab reads, in buffers of its own.
    - Backward computes only the gradients whose inputs require one and
      returns None for the others.
    - The weight gradient runs the lowering again and holds ``gw`` and one
      GEMM result of its size. A remade ``x`` lives only in this branch.
    - The input gradient keeps no ``dcols``: it holds one tap's rows of one
      slab of output T-planes (``C`` rows, about ``_SLAB_BYTES``, or one
      plane), GEMMs each tap of the slab into them in turn, and adds each
      into one sample's padded gradient.

    Nothing it holds grows with the batch or with the kernel's taps. With
    T x H x W grow only one output plane's ``cols``, where they exceed
    ``_SLAB_BYTES``, the input planes one slab reads, one tap's rows of one
    plane, and one sample's padded input gradient.
    """
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    if any(s < 1 for s in stride):
        raise ArgumentError(f"stride components must be >= 1, got {stride}")
    if x.data.ndim != 5:
        raise ShapeError(f"conv3d input must be rank 5 [N,C,T,H,W], got rank {x.data.ndim}")
    if weight.data.ndim != 5:
        raise ShapeError(f"conv3d weight must be rank 5 [Co,C,kt,kh,kw], got rank {weight.data.ndim}")
    n, c, t, h, w = x.shape
    co, ci, kt, kh, kw = weight.shape
    if ci != c:
        raise ShapeError(f"channel axis mismatch: input has {c} channels, weight expects {ci}")
    if bias is not None and bias.shape != (co,):
        raise ShapeError(f"bias axis mismatch: expected ({co},), got {bias.shape}")
    pt, ph, pw = padding
    st, sh, sw = stride
    tp, hp, wp = t + 2 * pt, h + 2 * ph, w + 2 * pw
    for name, k, ext in (("T", kt, tp), ("H", kh, hp), ("W", kw, wp)):
        if k > ext:
            raise ShapeError(f"kernel exceeds padded input on axis {name}: {k} > {ext}")
    to = (tp - kt) // st + 1
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1

    ck = c * kt * kh * kw
    w2 = weight.data.reshape(co, ck)
    plane = ho * wo
    p = to * plane
    xdt = x.dtype
    rows = min(to, max(1, _SLAB_BYTES // (ck * plane * xdt.itemsize)))
    span = (rows - 1) * st + kt

    def slabs(src):
        """im2col of ``src`` [N,C,T,H,W], one slab of ``rows`` output T-planes
        at a time: yields (b, s, cols), with cols [ck, len(s)] for the flat
        output positions s of sample b. Each call makes its own buffers, so no
        node keeps them."""
        xs, fill = _padded_planes(c, span, h, w, ph, pw, xdt)
        win = np.lib.stride_tricks.sliding_window_view(xs, (kt, kh, kw), axis=(1, 2, 3))
        win = win[:, ::st, ::sh, ::sw].transpose(0, 4, 5, 6, 1, 2, 3)  # [C,kt,kh,kw,rows,ho,wo]
        slab = np.empty(ck * rows * plane, dtype=xdt)
        for b in range(n):
            for t0 in range(0, to, rows):
                r = min(rows, to - t0)
                fill(src[b], t0 * st - pt)
                cols = slab[:ck * r * plane].reshape(ck, r * plane)
                np.copyto(cols.reshape(c, kt, kh, kw, r, ho, wo), win[:, :, :, :, :r])
                yield b, slice(t0 * plane, (t0 + r) * plane), cols

    out = np.empty((n, co, p), dtype=np.result_type(w2, x.data))
    for b, s, cols in slabs(x.data):
        np.matmul(w2, cols, out=out[b, :, s])
    out = out.reshape(n, co, to, ho, wo)
    if bias is not None:
        out += bias.data[None, :, None, None, None]
    remake = x.node.remake if x.node is not None else None
    xd = x.data if remake is None else None  # what backward keeps of x
    x_grad = x.requires_grad

    def bwd(g):
        g2 = np.ascontiguousarray(g.reshape(n, co, p))
        gw = gx = gb = None
        if weight.requires_grad:
            gw = np.empty((co, ck), dtype=np.result_type(g2, xdt))
            part = np.empty_like(gw)
            for b, s, cols in slabs(xd if remake is None else remake()):
                if b or s.start:
                    gw += np.matmul(g2[b, :, s], cols.T, out=part)
                else:  # the first slab's GEMM starts the sum
                    np.matmul(g2[b, :, s], cols.T, out=gw)
            gw = gw.reshape(weight.shape)
            # cols and the gx buffers both alive make malloc map fresh pages
            del cols, part
        if x_grad:
            # col2im without dcols, one GEMM per tap. The padded gradient is held as
            # st*sh*sw stride classes, each a flat [C, (ta+1)*hb*wb] grid, and g sits
            # in a zeroed [Co, to, hb, wb] grid of the same plane pitch. So tap
            # (i, j, k)'s GEMM over a slab of output planes gives columns that add,
            # one contiguous run per channel, into class (i%st, j%sh, k%sw) at offset
            # (i//st, j//sh, k//sw). Only zero columns run past a class's ta planes.
            ta, hb, wb = -(-tp // st), -(-hp // sh), -(-wp // sw)
            hw = hb * wb
            grid = np.zeros((co, to, hb, wb), dtype=g2.dtype)
            classes = np.empty((st, sh, sw, c, (ta + 1) * hw), dtype=xdt)
            padded = classes.reshape(st, sh, sw, c, ta + 1, hb, wb)[:, :, :, :, :ta] \
                .transpose(3, 4, 0, 5, 1, 6, 2)  # [C, ta, st, hb, sh, wb, sw]
            wt = np.ascontiguousarray(weight.data.transpose(2, 3, 4, 1, 0))  # [kt,kh,kw,C,Co]
            dt = np.result_type(w2, g2)
            rows = min(to, max(1, _SLAB_BYTES // (c * hw * dt.itemsize)))
            buf = np.empty(c * rows * hw, dtype=dt)  # one tap's rows of one slab
            gx = np.empty((n, c, t, h, w), dtype=xdt)
            for b in range(n):
                grid[:, :, :ho, :wo] = g2[b].reshape(co, to, ho, wo)
                classes.fill(0)
                # Two conditions keep every voxel's sum bit-identical to a col2im of
                # the whole dcols in (i, j, k) tap order. Slabs go in descending T:
                # a voxel's taps with a smaller i come from later output planes. And
                # the grid's zero columns GEMM to signed zeros with finite weights;
                # adding one never changes a sum that starts at +0.
                for t0 in reversed(range(0, to, rows)):
                    r = min(rows, to - t0)
                    gs = grid[:, t0:t0 + r].reshape(co, r * hw)
                    tap = buf[:c * r * hw].reshape(c, r * hw)
                    for i in range(kt):
                        for j in range(kh):
                            for k in range(kw):
                                np.matmul(wt[i, j, k], gs, out=tap)
                                s = ((i // st + t0) * hb + j // sh) * wb + k // sw
                                classes[i % st, j % sh, k % sw, :, s:s + r * hw] += tap
                # Reshaped per sample: above stride 1 the interleave is a copy.
                gx[b] = padded.reshape(c, ta * st, hb * sh, wb * sw)[:, pt:pt + t, ph:ph + h, pw:pw + w]
        if bias is not None and bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3, 4))
        return gx, gw, gb

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _record(inputs, out, bwd)


def _fold(v: np.ndarray, axis: int) -> np.ndarray:
    """The 3-tap ``axis`` of ``v`` as seen from a x2 nearest upsample: [..., 3,
    ...] -> [..., 2 phases, 2 taps, ...]. Output phase 0 reads the two
    low-resolution planes nearest it with taps (v0, v1 + v2), phase 1 with
    (v0 + v1, v2)."""
    v0, v1, v2 = (v[(slice(None),) * axis + (i,)] for i in range(3))
    return np.stack([np.stack([v0, v1 + v2], axis), np.stack([v0 + v1, v2], axis)], axis)


def _unfold(u: np.ndarray, axis: int) -> np.ndarray:
    """The adjoint of ``_fold``: [..., 2, 2, ...] -> [..., 3, ...]."""
    u00, u01, u10, u11 = (u[(slice(None),) * axis + (a, i)] for a in (0, 1) for i in (0, 1))
    return np.stack([u00 + u10, u01 + u10, u01 + u11], axis)


def _phase_kernels(w: np.ndarray) -> np.ndarray:
    """[Co,C,3,3,3] kernels folded per axis into one [8*Co, 8*C] matrix: rows
    (phase t, phase h, phase w, Co), columns (tap t, tap h, tap w, C)."""
    co, c = w.shape[:2]
    f = np.ascontiguousarray(w.transpose(2, 3, 4, 0, 1))  # [kt, kh, kw, Co, C]
    for axis in (0, 2, 4):
        f = _fold(f, axis)  # [pt, i, ph, j, pw, k, Co, C] after the last
    return f.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(8 * co, 8 * c)


def _phase_kernels_adjoint(gk: np.ndarray, co: int, c: int) -> np.ndarray:
    """The gradient of ``_phase_kernels``' [Co,C,3,3,3] input from ``gk``, the
    gradient of its [8*Co, 8*C] output."""
    u = gk.reshape(2, 2, 2, co, 2, 2, 2, c).transpose(0, 4, 1, 5, 2, 6, 3, 7)
    for axis in (4, 2, 0):
        u = _unfold(u, axis)  # [kt, kh, kw, Co, C] after the last
    return u.transpose(3, 4, 0, 1, 2)


def upsample_conv3d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``conv3d(up(x), weight, bias, padding=1)`` for [N,C,T,H,W] ``x``,
    [Co,C,3,3,3] ``weight`` and ``up`` the nearest x2 upsample of T, H and W,
    without making the upsampled array: [N,Co,2T,2H,2W].

    Along each axis, output plane 2q + a (a = 0 or 1) of that conv reads only
    input planes q - 1 + a and q + a, with taps (w0, w1 + w2) for a = 0 and
    (w0 + w1, w2) for a = 1. So each of the eight output phases (a_t, a_h,
    a_w) is a 2x2x2 conv of the input zero-bordered by one plane, whose window
    at padded position q + a gives its output q. ``_phase_kernels`` folds the
    weight into all eight as one [8*Co, 8*C] matrix. Forward GEMMs it over
    the k2 im2col of the padded input, a slab of ``rows`` window planes at a
    time, and interleaves the phases into the output. The input gradient
    GEMMs its transpose over the output gradient laid out on the same windows
    and adds each tap's rows into one sample's padded gradient. The weight
    gradient runs one GEMM per phase over just that phase's T*H*W positions,
    summed in T order within each sample, then in batch order, and folds the
    eight phase-kernel gradients back with ``_phase_kernels_adjoint``.

    Memory contract, as conv3d's: forward keeps ``x`` (an eighth of the
    upsampled input) and nothing else for backward. Each pass holds, in
    buffers reused for every slab and sample, one slab's padded input planes
    and at most ``_SLAB_BYTES`` (or one plane's worth) in each of its other
    buffers: forward the columns and their GEMM result, the weight gradient
    one phase's columns and output gradient, the input gradient the output
    gradient on the windows and the GEMM result. Beyond those, the weight
    gradient holds the phase kernels' gradients and one GEMM result of one
    phase's size, and the input gradient one sample's padded gradient.
    """
    if x.data.ndim != 5:
        raise ShapeError(f"upsample_conv3d input must be rank 5 [N,C,T,H,W], got rank {x.data.ndim}")
    n, c, t, h, w = x.shape
    co = weight.shape[0]
    if weight.shape != (co, c, 3, 3, 3):
        raise ShapeError(f"upsample_conv3d weight must be [Co,{c},3,3,3], got {weight.shape}")
    if bias is not None and bias.shape != (co,):
        raise ShapeError(f"bias axis mismatch: expected ({co},), got {bias.shape}")
    k8 = _phase_kernels(weight.data)
    xd, xdt = x.data, x.dtype
    # Bytes per window of a slab's widest buffer, 8*C columns or 8*Co results.
    unit = 8 * max(c, co) * xdt.itemsize
    plane = (h + 1) * (w + 1)  # the windows of one padded plane
    rows = min(t + 1, max(1, _SLAB_BYTES // (unit * plane)))

    def lowering(span):
        """``fill`` of a buffer of ``span`` padded planes, and its 2x2x2
        windows [2,2,2,C,span-1,h+1,w+1]."""
        xs, fill = _padded_planes(c, span, h, w, 1, 1, xdt)
        win = np.lib.stride_tricks.sliding_window_view(xs, (2, 2, 2), axis=(1, 2, 3))
        return fill, win.transpose(4, 5, 6, 0, 1, 2, 3)

    out = np.empty((n, co, t, 2, h, 2, w, 2), dtype=np.result_type(k8, xd))
    fill, win = lowering(rows + 1)
    cbuf = np.empty(8 * c * rows * plane, dtype=xdt)
    ybuf = np.empty(8 * co * rows * plane, dtype=out.dtype)
    for b in range(n):
        for s0 in range(0, t + 1, rows):
            r = min(rows, t + 1 - s0)
            fill(xd[b], s0 - 1)
            cols = cbuf[:8 * c * r * plane].reshape(8 * c, r * plane)
            np.copyto(cols.reshape(2, 2, 2, c, r, h + 1, w + 1), win[:, :, :, :, :r])
            y = np.matmul(k8, cols, out=ybuf[:8 * co * r * plane].reshape(8 * co, r * plane))
            y = y.reshape(2, 2, 2, co, r, h + 1, w + 1)
            for at, ah, aw in np.ndindex(2, 2, 2):
                lo, hi = max(s0, at), min(s0 + r, t + at)  # windows with an output plane
                out[b, :, lo - at:hi - at, at, :, ah, :, aw] = \
                    y[at, ah, aw, :, lo - s0:hi - s0, ah:ah + h, aw:aw + w]
    out = out.reshape(n, co, 2 * t, 2 * h, 2 * w)
    if bias is not None:
        out += bias.data[None, :, None, None, None]

    def weight_grad(gv):
        hw = h * w
        rows = min(t, max(1, _SLAB_BYTES // (unit * hw)))
        fill, win = lowering(rows + 2)  # phase a of plane q reads window q + a
        cbuf = np.empty(8 * c * rows * hw, dtype=xdt)
        gbuf = np.empty(co * rows * hw, dtype=gv.dtype)
        gk = np.empty((8, co, 8 * c), dtype=np.result_type(gv, xdt))
        part = np.empty_like(gk[0])
        for b in range(n):
            for t0 in range(0, t, rows):
                r = min(rows, t - t0)
                fill(xd[b], t0 - 1)
                cols = cbuf[:8 * c * r * hw].reshape(8 * c, r * hw)
                gs = gbuf[:co * r * hw].reshape(co, r * hw)
                for q, (at, ah, aw) in enumerate(np.ndindex(2, 2, 2)):
                    np.copyto(cols.reshape(2, 2, 2, c, r, h, w),
                              win[:, :, :, :, at:at + r, ah:ah + h, aw:aw + w])
                    np.copyto(gs.reshape(co, r, h, w), gv[b, :, t0:t0 + r, at, :, ah, :, aw])
                    if b or t0:
                        gk[q] += np.matmul(gs, cols.T, out=part)
                    else:  # each phase's first GEMM starts its sum
                        np.matmul(gs, cols.T, out=gk[q])
        return _phase_kernels_adjoint(gk, co, c)

    def input_grad(gv):
        # The output gradient on the windows of a slab, each phase's at the
        # window that made it and zero elsewhere, on the padded plane pitch: so
        # each tap's rows of the GEMM add, one contiguous run per channel, into
        # the padded gradient at the tap's offset. Only zero columns run past
        # a padded row or plane.
        hp, wp = h + 2, w + 2
        hw = hp * wp
        rows = min(t + 1, max(1, _SLAB_BYTES // (unit * hw)))
        kt8 = np.ascontiguousarray(_phase_kernels(weight.data).T)  # not kept from forward
        gbuf = np.empty(8 * co * rows * hw, dtype=gv.dtype)
        dbuf = np.empty(8 * c * rows * hw, dtype=np.result_type(kt8, gv))
        gxp = np.empty((c, (t + 3) * hw), dtype=xdt)  # a spare plane for those runs
        gx = np.empty((n, c, t, h, w), dtype=xdt)
        for b in range(n):
            gxp.fill(0)
            for s0 in range(0, t + 1, rows):
                r = min(rows, t + 1 - s0)
                gs = gbuf[:8 * co * r * hw].reshape(2, 2, 2, co, r, hp, wp)
                gs.fill(0)
                for at, ah, aw in np.ndindex(2, 2, 2):
                    lo, hi = max(s0, at), min(s0 + r, t + at)
                    gs[at, ah, aw, :, lo - s0:hi - s0, ah:ah + h, aw:aw + w] = \
                        gv[b, :, lo - at:hi - at, at, :, ah, :, aw]
                d = np.matmul(kt8, gs.reshape(8 * co, r * hw),
                              out=dbuf[:8 * c * r * hw].reshape(8 * c, r * hw))
                d = d.reshape(8, c, r * hw)
                for q, (i, j, k) in enumerate(np.ndindex(2, 2, 2)):
                    o = (s0 + i) * hw + j * wp + k
                    gxp[:, o:o + r * hw] += d[q]
            gx[b] = gxp.reshape(c, t + 3, hp, wp)[:, 1:t + 1, 1:h + 1, 1:w + 1]
        return gx

    x_grad = x.requires_grad

    def bwd(g):
        gv = g.reshape(n, co, t, 2, h, 2, w, 2)
        gw = weight_grad(gv) if weight.requires_grad else None
        gx = input_grad(gv) if x_grad else None
        gb = g.sum(axis=(0, 2, 3, 4)) if bias is not None and bias.requires_grad else None
        return gx, gw, gb

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _record(inputs, out, bwd)


def group_norm_swish(x: Tensor, groups: int, gain: Tensor, bias: Tensor,
                     eps: float = 1e-6) -> Tensor:
    """Per-group standardization over [N,C,...], a per-channel affine, then
    swish: ``y * sigmoid(y)`` for ``y = xhat * gain + bias``, as one node.

    The node keeps ``x`` and each group's mean and inverse deviation, not
    ``xhat`` or ``y``. Backward recomputes ``y`` and its sigmoid for swish's
    gradient, then ``xhat`` for the norm's. Its ``remake`` runs forward again
    from the same state, so a conv3d that reads the output keeps no copy of
    it. Beyond its input, forward and ``remake`` hold two arrays of the
    output's size, and backward four next to its incoming gradient.
    """
    if x.data.ndim < 2:
        raise ShapeError("group_norm_swish input must have at least [N,C] axes")
    n, c = x.shape[0], x.shape[1]
    if c % groups != 0:
        raise ArgumentError(f"channel count {c} not divisible by {groups} groups")
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"gain/bias must have shape ({c},)")
    shape, dtype = x.shape, x.dtype
    m = int(np.prod(shape[2:], dtype=np.int64))
    xg = x.data.reshape(n, groups, (c // groups) * m)
    mu = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    gshape = (1, c) + (1,) * (len(shape) - 2)
    gain_c, bias_c = gain.data.reshape(gshape), bias.data.reshape(gshape)

    def standardized():  # xhat as [N, groups, C/groups * m], in one new array
        xh = np.subtract(xg, mu)
        return _into(xh, np.multiply, xh, inv)

    def affine():  # y, in xhat's array where dtypes allow
        y = standardized().reshape(shape)
        y = _into(y, np.multiply, y, gain_c)
        return _into(y, np.add, y, bias_c)

    def remake():
        y = affine()
        s = _sigmoid(y)
        return np.multiply(y, s, out=s)

    def bwd(g):
        # Swish's gradient g * (s + y * s * (1 - s)), written into y's array
        # and cast as the tape casts it.
        y = affine()
        s = _sigmoid(y)
        d = np.multiply(y, s, out=y)
        np.multiply(d, np.subtract(1.0, s), out=d)
        np.add(s, d, out=d)
        s = None  # freed before the norm's gradients make their arrays
        g = _into(d, np.multiply, g, d).astype(y.dtype, copy=False)
        # The norm's gradients, from g and the recomputed xhat, whose array
        # they reuse. Beyond g and xh, they hold two arrays of their size.
        xh = standardized()
        axes = (0,) + tuple(range(2, g.ndim))
        t = g * xh.reshape(g.shape)
        ggain = t.sum(axis=axes)
        gbias = g.sum(axis=axes)
        dxhat = _into(t, np.multiply, g, gain_c).reshape(xh.shape)
        mean_d = dxhat.mean(axis=2, keepdims=True)
        u = dxhat * xh
        mean_dx = u.mean(axis=2, keepdims=True)
        u = _into(u, np.subtract, dxhat, mean_d)  # dxhat - mean_d - xh * mean_dx
        xh = _into(xh, np.multiply, xh, mean_dx)
        u = _into(u, np.subtract, u, xh)
        gx = _into(u, np.multiply, inv, u).reshape(g.shape)
        return gx.astype(dtype, copy=False), ggain, gbias

    return _record((x, gain, bias), remake(), bwd, remake)


# ---------------------------------------------------------------------------
# Bounded artifact reading and whole-file writing, shared by MHT1 below, MTK1
# (quantizer) and MCK1 (model), whose writes the text files (keypoints,
# reports, manifests) share too: every read is checked against the length of
# the file, so a truncated or corrupt file raises DataError and nothing else,
# and every write replaces the file in one step.
# ---------------------------------------------------------------------------

def read_artifact(path, magic: bytes) -> bytes:
    """The bytes of the file at ``path``, which must start with ``magic``."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:len(magic)] != magic:
        raise DataError(f"bad magic in {path}: expected {magic!r}")
    return blob


def write_artifact(path, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path`` all at once: they go to a
    temporary file in the same directory, which then replaces ``path``, so a
    write cut short leaves the old file whole and no temporary file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """``write_artifact`` for text: ``text`` in UTF-8, a line per write."""
    write_artifact(path, (line.encode("utf-8") for line in text.splitlines(keepends=True)))


def unpack_at(blob: bytes, fmt: str, offset: int, path) -> tuple:
    """``struct.unpack_from(fmt, blob, offset)``, or DataError when the
    fields do not lie inside the file."""
    end = offset + struct.calcsize(fmt)
    if offset < 0 or end > len(blob):
        raise DataError(f"truncated file {path}: {fmt!r} at byte {offset} "
                        f"ends at byte {end}, the file has {len(blob)}")
    return struct.unpack_from(fmt, blob, offset)


def array_at(blob: bytes, dtype, shape, offset: int, path,
             ends_file: bool = False) -> np.ndarray:
    """Native-order copy of the ``dtype`` array of ``shape`` stored at ``offset``.

    DataError when the array does not lie inside the file or, with
    ``ends_file``, when any bytes follow it.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)  # Python ints: huge extents cannot wrap
    end = offset + count * dtype.itemsize
    if offset < 0 or end > len(blob) or (ends_file and end != len(blob)):
        raise DataError(f"{path}: {count} x {dtype} at byte {offset} ends at byte "
                        f"{end}, the file has {len(blob)}")
    arr = np.frombuffer(blob, dtype=dtype, offset=offset, count=count)
    return arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)


# ---------------------------------------------------------------------------
# "MHT1" tensor file format: magic, u8 dtype tag (0=f32, 1=f64), u8 rank,
# rank x u32 little-endian extents, then raw little-endian values.
# ---------------------------------------------------------------------------

_MHT_MAGIC = b"MHT1"
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_tensor(path, array) -> None:
    data = array.data if isinstance(array, Tensor) else np.asarray(array)
    tag = 1 if data.dtype == np.float64 else 0
    le = np.ascontiguousarray(data, dtype=_DTYPE_TAGS[tag])
    write_artifact(path, (_MHT_MAGIC, struct.pack("<BB", tag, data.ndim),
                          struct.pack(f"<{data.ndim}I", *data.shape), le.tobytes()))


def load_tensor(path) -> np.ndarray:
    blob = read_artifact(path, _MHT_MAGIC)
    tag, rank = unpack_at(blob, "<BB", 4, path)
    if tag not in _DTYPE_TAGS:
        raise DataError(f"unknown dtype tag {tag} in {path}")
    shape = unpack_at(blob, f"<{rank}I", 6, path)
    return array_at(blob, _DTYPE_TAGS[tag], shape, 6 + 4 * rank, path, ends_file=True)
