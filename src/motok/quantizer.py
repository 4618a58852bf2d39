"""Discrete bottleneck: codebook, nearest-entry lookup, straight-through grads.

Each latent vector is snapped to its nearest codebook entry under squared
Euclidean distance (ties to the lowest index). The forward output carries a
straight-through gradient so the encoder trains as if quantization were the
identity, while the two-term VQ loss routes gradients to the codebook and the
encoder through explicit stop-gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensorcore as tc
from .errors import ArgumentError, DataError, ShapeError, StateError
from .tensorcore import Tensor


@dataclass
class Codebook:
    """Learnable vocabulary of embedding vectors with usage counters."""

    entries: Tensor
    usage: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.entries.data.ndim != 2:
            raise ShapeError(f"codebook entries must be [V,d], got {self.entries.shape}")
        if self.vocab < 2 or self.dim < 1:
            raise ArgumentError(f"need V >= 2 and d >= 1, got V={self.vocab}, d={self.dim}")
        if not np.all(np.isfinite(self.entries.data)):
            raise ArgumentError("codebook entries must be finite")
        if self.usage is None:
            self.usage = np.zeros(self.vocab, dtype=np.int64)

    @property
    def vocab(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]

    def reset_usage(self) -> None:
        self.usage[:] = 0


@dataclass
class TokenGrid:
    """Lattice of codebook indices: the compressed motion representation."""

    extents: tuple
    indices: np.ndarray
    vocab: int

    def __post_init__(self):
        self.extents = tuple(int(e) for e in self.extents)
        self.indices = np.asarray(self.indices, dtype=np.int64).reshape(self.extents)
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.vocab):
            raise DataError(f"token index out of range [0, {self.vocab})")


@dataclass
class QuantizeResult:
    z_q: Tensor                 # straight-through output, decoder input
    grids: list                 # one TokenGrid per batch element
    e_sel: Tensor               # selected entries, differentiable wrt codebook


def init_codebook(vocab: int, dim: int, seed: int) -> Codebook:
    """Entries drawn uniformly from [-1/V, 1/V], deterministic per seed."""
    if vocab < 2 or dim < 1:
        raise ArgumentError(f"need V >= 2 and d >= 1, got V={vocab}, d={dim}")
    rng = np.random.default_rng(seed)
    entries = rng.uniform(-1.0 / vocab, 1.0 / vocab, size=(vocab, dim))
    return Codebook(Tensor(entries.astype(np.float32), requires_grad=True))


def nearest_indices(z_flat: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Index of the squared-L2-nearest entry per row; ties to lowest index."""
    if z_flat.shape[1] != entries.shape[1]:
        raise ShapeError(f"latent dim {z_flat.shape[1]} != codebook dim {entries.shape[1]}")
    z = z_flat.astype(np.float64, copy=False)
    e = entries.astype(np.float64, copy=False)
    d2 = (np.sum(z * z, axis=1, keepdims=True)
          - 2.0 * (z @ e.T)
          + np.sum(e * e, axis=1)[None, :])
    return np.argmin(d2, axis=1)


def _positions(shape: tuple) -> int:
    """Lattice position count for rank-1 vectors, [P,d] rows, or [N,d,t,h,w]."""
    if len(shape) == 1:
        return 1
    if len(shape) == 2:
        return shape[0]
    if len(shape) == 5:
        n, _, t, h, w = shape
        return n * t * h * w
    raise ShapeError(f"unsupported latent rank {len(shape)}")


def quantize(z_e: Tensor, book: Codebook) -> QuantizeResult:
    """Replace each spatial latent vector with its nearest codebook entry."""
    if z_e.data.ndim != 5:
        raise ShapeError(f"quantize expects [N,d,t,h,w], got rank {z_e.data.ndim}")
    n, d, t, h, w = z_e.shape
    if d != book.dim:
        raise ShapeError(f"latent dim {d} != codebook dim {book.dim}")

    flat = np.moveaxis(z_e.data, 1, 4).reshape(-1, d)
    idx = nearest_indices(flat, book.entries.data)
    book.usage += np.bincount(idx, minlength=book.vocab)

    e_rows = tc.take_rows(book.entries, idx)                    # [P,d], grads to book
    e_sel = tc.moveaxis(tc.reshape(e_rows, (n, t, h, w, d)), 4, 1)
    # Straight-through: forward takes the entry values, backward is identity.
    z_q = tc.add(z_e, Tensor((e_sel.data - z_e.data).astype(z_e.dtype)))

    grids = [TokenGrid((t, h, w), idx.reshape(n, t, h, w)[i], book.vocab)
             for i in range(n)]
    return QuantizeResult(z_q, grids, e_sel)


def vq_loss(z_e: Tensor, e_sel: Tensor, commitment: float = 1.0) -> Tensor:
    """||sg(z_e) - e||^2 + commitment * ||z_e - sg(e)||^2, mean over positions.

    The first term trains only the codebook, the second only the encoder.
    """
    if z_e.shape != e_sel.shape:
        raise ShapeError(f"latent/entry shape mismatch: {z_e.shape} vs {e_sel.shape}")
    p = _positions(z_e.shape)
    d_book = tc.sub(tc.stop_gradient(z_e), e_sel)
    d_commit = tc.sub(z_e, tc.stop_gradient(e_sel))
    book_term = tc.mul(tc.tsum(tc.mul(d_book, d_book)), 1.0 / p)
    commit_term = tc.mul(tc.tsum(tc.mul(d_commit, d_commit)), commitment / p)
    return tc.add(book_term, commit_term)


def perplexity(book: Codebook) -> float:
    """exp(entropy) of the empirical usage distribution, in [1, V]."""
    total = int(book.usage.sum())
    if total == 0:
        raise StateError("perplexity undefined before any quantization call")
    p = book.usage.astype(np.float64) / total
    nz = p[p > 0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def reinit_dead_entries(book: Codebook, rng: np.random.Generator) -> int:
    """Reseed entries unused since the last reset; off by default in training."""
    dead = np.flatnonzero(book.usage == 0)
    if dead.size:
        fresh = rng.uniform(-1.0 / book.vocab, 1.0 / book.vocab,
                            size=(dead.size, book.dim))
        book.entries.data[dead] = fresh.astype(book.entries.dtype)
    return int(dead.size)


# ---------------------------------------------------------------------------
# "MTK1" token file: magic, u32 vocab, 3 x u32 extents, t*h*w LE u16 indices.
# ---------------------------------------------------------------------------

_MTK_MAGIC = b"MTK1"


def save_tokens(path, grid: TokenGrid) -> None:
    if grid.vocab > 65536:
        raise ArgumentError(f"token file supports vocab <= 65536, got {grid.vocab}")
    tc.write_artifact(path, (_MTK_MAGIC, struct.pack("<4I", grid.vocab, *grid.extents),
                             grid.indices.astype("<u2").tobytes()))


def load_tokens(path) -> TokenGrid:
    blob = tc.read_artifact(path, _MTK_MAGIC)
    vocab, *extents = tc.unpack_at(blob, "<4I", 4, path)
    idx = tc.array_at(blob, "<u2", extents, 20, path, ends_file=True)
    return TokenGrid(extents, idx, vocab)
