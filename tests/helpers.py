"""Shared test utilities: central finite-difference gradient checking,
checkpoint-header surgery and artifact corruption."""

import json
import struct

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from motok.tensorcore import Tape, Tensor, backward


def finite_diff_grads(f, arrays, h=1e-6):
    """Central-difference gradients of scalar f() wrt each array in-place."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(build, arrays, rtol=1e-5, h=1e-6):
    """Compare tape gradients of build(tensors)->scalar against finite differences.

    Returns the worst relative error observed. Arrays must be f64.
    """
    tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    with Tape():
        loss = build(*tensors)
        backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def forward():
        ts = [Tensor(a, dtype=np.float64) for a in arrays]
        return float(build(*ts).numpy())

    numeric = finite_diff_grads(forward, arrays, h=h)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        err = np.max(np.abs(a - n) / (1.0 + np.abs(n)))
        worst = max(worst, float(err))
    return worst


def rewrite_checkpoint_header(src, dst, edit):
    """Copy an MCK1 checkpoint with its JSON header replaced by edit(header).

    ``edit`` may change the header in place (returning None) or return a new
    JSON value; the buffers after the header are copied unchanged.
    """
    blob = open(src, "rb").read()
    hlen, = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8:8 + hlen])
    new = edit(header)
    raw = json.dumps(header if new is None else new).encode("utf-8")
    with open(dst, "wb") as f:
        f.write(blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + hlen:])


# Each example rewrites the same file in a test's tmp_path, so sharing the
# function-scoped fixture across examples is intended. Derandomized, so every
# run tries the same edits.
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def corruptions(size, head=None):
    """Strategy for one edit of a ``size``-byte file: ``(n, None)`` truncates it
    to ``n`` bytes, ``(i, v)`` overwrites byte ``i`` (one of the first ``head``
    bytes when given) with ``v``."""
    cut = st.integers(0, size - 1).map(lambda n: (n, None))
    put = st.tuples(st.integers(0, (head or size) - 1), st.integers(0, 255))
    return st.one_of(cut, put)


def corrupt(blob, edit):
    """``blob`` with one edit drawn from ``corruptions`` applied."""
    at, value = edit
    if value is None:
        return blob[:at]
    return blob[:at] + bytes([value]) + blob[at + 1:]
