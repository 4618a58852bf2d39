"""Per-layer trace of motok, built only from the benchmark's own files.

``Tracer.install`` replaces every public module-level function of the motok
modules in ``MODULES`` (and ``Tape.backward``) with a wrapper that records a
span per call: inclusive time and self time (inclusive minus the wrapped
calls inside it), keyed ``<module>.<function>``. A function
imported by name into another module (``metrics.quantize``) is patched there
too, with the same wrapper. Every tape node appended during a wrapped
tensorcore call gets a timed ``backward_fn``, so backward time is charged to
the op that recorded the node and to every span open when it was recorded.
``uninstall`` puts each original back and reports whether it is in place.

Spans and counters live in memory; ``layer_metrics`` turns them into the
per-layer numbers. There are no queues or worker threads in motok, so no span
measures time spent waiting.
"""

from __future__ import annotations

import inspect
import os
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("tensorcore", "model", "quantizer", "losses", "metrics", "heatmap",
           "trainer", "cli")
# ``active_tape`` runs inside every op's ``_record``; a span for it would only
# add overhead to the op it sits in.
SKIP = {"tensorcore.active_tape"}
ELEMENTWISE = ("swish", "sigmoid", "leaky_relu", "add", "sub", "mul", "tabs")
CONV = "tensorcore.conv3d"
CONV_CLASSES = ("k3s1", "k3s2", "k1")
MB = float(1 << 20)


class _Span:
    __slots__ = ("name", "t0", "child")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.t0 = time.perf_counter()


class _TimedBackward:
    """Stands in for a tape node's ``backward_fn`` and times each call."""

    __slots__ = ("tracer", "fn", "name", "labels", "inputs", "bwd_flop")

    def __init__(self, tracer, fn, name, labels, inputs, bwd_flop):
        self.tracer = tracer
        self.fn = fn
        self.name = name
        self.labels = labels
        self.inputs = inputs
        self.bwd_flop = bwd_flop

    def __call__(self, grad):
        tracer = self.tracer
        if not tracer.active:
            return self.fn(grad)
        tracer.enter(self.name)
        try:
            grads = self.fn(grad)
        finally:
            dt = tracer.exit()
        for label in self.labels:
            tracer.bwd_under[label] += dt
        counts = tracer.counts
        counts["tape.nodes_run"] += 1
        if self.bwd_flop:
            counts["conv3d.bwd_flop"] += self.bwd_flop
            for tensor, g in zip(self.inputs, grads):
                if g is not None:
                    counts["conv3d.grads_computed"] += 1
                    counts["conv3d.grads_used"] += int(tensor.requires_grad)
        return grads


class Tracer:
    """Wraps motok's layer functions and aggregates their spans."""

    def __init__(self, package, modules):
        self.package = package
        self.modules = modules
        self.tc = modules["tensorcore"]
        self._active_tape = self.tc.active_tape
        self._conv_sig = inspect.signature(self.tc.conv3d)
        self._patched = []
        self.active = False
        self.stack = []
        self.reset()

    # -- spans -------------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far; open spans restart now."""
        now = time.perf_counter()
        for span in self.stack:
            span.t0 = now
            span.child = 0.0
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(float)      # (parent, child) -> inclusive s
        self.bwd_under = defaultdict(float)  # span -> backward s of its nodes
        self.conv_fwd = defaultdict(float)   # kernel class -> forward s
        self.counts = defaultdict(int)
        self.usage = None                    # codebook index -> times chosen

    def enter(self, name) -> None:
        self.stack.append(_Span(name))

    def exit(self) -> float:
        t1 = time.perf_counter()
        span = self.stack.pop()
        dt = t1 - span.t0
        self.incl[span.name] += dt
        self.self_time[span.name] += dt - span.child
        if self.stack:
            parent = self.stack[-1]
            parent.child += dt
            self.edges[(parent.name, span.name)] += dt
        return dt

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        wrappers = {}
        for modname in MODULES:
            mod = self.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(prefix)):
                    continue
                name = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                if name in SKIP:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        tape_cls = self.tc.Tape
        original = vars(tape_cls)["backward"]
        self._patched.append((tape_cls, "backward", original))
        tape_cls.backward = self._wrap(original, "tensorcore.Tape.backward")
        self.active = True

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all originals are back."""
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patched)
        self._patched.clear()
        return restored

    def _wrap(self, fn, name):
        tracer = self
        records_nodes = name.startswith("tensorcore.")
        hook = {
            CONV: self._conv_hook,
            "tensorcore.Tape.backward": self._tape_hook,
            "quantizer.quantize": self._quantize_hook,
            "model.load_checkpoint": self._checkpoint_hook,
        }.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tape = tracer._active_tape() if records_nodes else None
            n0 = len(tape.nodes) if tape is not None else 0
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = tracer.exit()
            meta = hook(args, kwargs, out, dt) if hook is not None else None
            if tape is not None and len(tape.nodes) > n0:
                tracer._adopt(tape.nodes, n0, name, meta)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _adopt(self, nodes, start, name, meta) -> None:
        labels = tuple(span.name for span in self.stack) + (name,)
        bwd_flop = 0
        if meta is not None:
            labels += (meta[0],)
            bwd_flop = meta[1]
        for node in nodes[start:]:
            if not isinstance(node.backward_fn, _TimedBackward):
                node.backward_fn = _TimedBackward(self, node.backward_fn, name + ".bwd",
                                                  labels, node.inputs, bwd_flop)

    # -- hooks: exact counts at the layer boundary ------------------------

    def _conv_hook(self, args, kwargs, out, dt):
        bound = self._conv_sig.bind(*args, **kwargs)
        x, weight = bound.arguments["x"], bound.arguments["weight"]
        stride = bound.arguments.get("stride", 1)
        stride = (stride,) * 3 if isinstance(stride, int) else tuple(stride)
        kernel = tuple(weight.shape[2:])
        if kernel == (1, 1, 1) and stride == (1, 1, 1):
            klass = "k1"
        elif kernel == (3, 3, 3) and stride in ((1, 1, 1), (2, 2, 2)):
            klass = f"k3s{stride[0]}"
        else:
            klass = "other"
        n, co = out.shape[:2]
        k = int(np.prod(weight.shape[1:]))
        p = int(np.prod(out.shape[2:]))
        flop = 2 * n * co * k * p
        counts = self.counts
        counts["conv3d.calls"] += 1
        counts["conv3d.fwd_flop"] += flop
        if klass != "k1":
            counts["conv3d.cols_bytes"] += n * k * p * x.data.itemsize
        self.conv_fwd[klass] += dt
        # Backward runs two GEMMs of the forward's size: weight and input grads.
        return f"{CONV}.{klass}", 2 * flop

    def _tape_hook(self, args, kwargs, out, dt):
        self.counts["tape.nodes"] += len(args[0].nodes)

    def _quantize_hook(self, args, kwargs, out, dt):
        n, _, t, h, w = args[0].shape
        self.counts["quantizer.positions"] += n * t * h * w
        chosen = np.concatenate([grid.indices.ravel() for grid in out.grids])
        hist = np.bincount(chosen, minlength=args[1].vocab)
        self.usage = hist if self.usage is None else self.usage + hist

    def _checkpoint_hook(self, args, kwargs, out, dt):
        self.counts["model.checkpoint_bytes"] = os.path.getsize(args[0])

    # -- results -----------------------------------------------------------

    EXACT = ("conv3d.calls", "conv3d.fwd_flop", "conv3d.bwd_flop", "conv3d.cols_bytes",
             "conv3d.grads_used", "conv3d.grads_computed", "tape.nodes",
             "quantizer.positions")

    def exact_counts(self) -> dict:
        """Counters that must repeat exactly for every op of a workload."""
        return {key: int(self.counts[key]) for key in self.EXACT}

    def layer_metrics(self, per: float) -> dict:
        """Per-layer numbers, each divided by ``per`` (steps or windows)."""
        ms = 1000.0 / per
        incl, bwd, counts = self.incl, self.bwd_under, self.counts
        out = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        put(f"{CONV}.fwd_ms", incl[CONV] * ms, "ms")
        put(f"{CONV}.bwd_ms", bwd[CONV] * ms, "ms")
        for klass in CONV_CLASSES:
            put(f"{CONV}.{klass}.fwd_ms", self.conv_fwd[klass] * ms, "ms")
            put(f"{CONV}.{klass}.bwd_ms", bwd[f"{CONV}.{klass}"] * ms, "ms")
        put(f"{CONV}.calls", counts["conv3d.calls"] / per, "count")
        put(f"{CONV}.fwd_gflop", counts["conv3d.fwd_flop"] / 1e9 / per, "GFLOP")
        put(f"{CONV}.bwd_gflop", counts["conv3d.bwd_flop"] / 1e9 / per, "GFLOP")
        put(f"{CONV}.fwd_gflop_per_s",
            counts["conv3d.fwd_flop"] / 1e9 / incl[CONV] if incl[CONV] else 0.0, "GFLOP/s")
        put(f"{CONV}.cols_mb", counts["conv3d.cols_bytes"] / MB / per, "MB")
        computed = counts["conv3d.grads_computed"]
        put(f"{CONV}.bwd_grads_used_ratio",
            counts["conv3d.grads_used"] / computed if computed else 0.0, "ratio")
        for short, fn in (("group_norm", "group_norm"), ("upsample", "upsample_nearest3d")):
            put(f"tensorcore.{short}.fwd_ms", incl[f"tensorcore.{fn}"] * ms, "ms")
            put(f"tensorcore.{short}.bwd_ms", bwd[f"tensorcore.{fn}"] * ms, "ms")
        put("tensorcore.elementwise.fwd_ms",
            sum(incl[f"tensorcore.{fn}"] for fn in ELEMENTWISE) * ms, "ms")
        put("tensorcore.elementwise.bwd_ms",
            sum(bwd[f"tensorcore.{fn}"] for fn in ELEMENTWISE) * ms, "ms")
        nodes = counts["tape.nodes"]
        put("tensorcore.tape.nodes", nodes / per, "count")
        put("tensorcore.tape.backward_ms", incl["tensorcore.Tape.backward"] * ms, "ms")
        put("tensorcore.tape.self_ms", self.self_time["tensorcore.Tape.backward"] * ms, "ms")
        put("tensorcore.tape.skipped_nodes_ratio",
            1.0 - counts["tape.nodes_run"] / nodes if nodes else 0.0, "ratio")
        for name in ("tensorcore.save_tensor", "tensorcore.load_tensor",
                     "model.encoder_forward", "model.decoder_forward",
                     "model.discriminator_forward", "model.encode", "model.decode",
                     "model.load_checkpoint", "model.save_checkpoint",
                     "quantizer.quantize", "quantizer.nearest_indices",
                     "quantizer.vq_loss", "quantizer.save_tokens", "quantizer.load_tokens",
                     "metrics.ssim", "metrics.psnr", "metrics.l1", "metrics.tstd",
                     "heatmap.render2d", "heatmap.window", "heatmap.load_keypoints"):
            put(f"{name}_ms", incl[name] * ms, "ms")
        put("model.checkpoint_mb", counts["model.checkpoint_bytes"] / MB, "MB")
        put("quantizer.positions", counts["quantizer.positions"] / per, "count")
        if self.usage is None:
            put("quantizer.active_entries_ratio", 0.0, "ratio")
            put("quantizer.perplexity", 0.0, "entries")
        else:
            hits = self.usage[self.usage > 0].astype(np.float64)
            p = hits / hits.sum()
            put("quantizer.active_entries_ratio", hits.size / self.usage.size, "ratio")
            put("quantizer.perplexity", np.exp(-np.sum(p * np.log(p))), "entries")
        put("losses.perceptual_fwd_ms", incl["losses.perceptual_loss"] * ms, "ms")
        put("losses.perceptual_bwd_ms", bwd["losses.perceptual_loss"] * ms, "ms")
        put("losses.l1_ms", (incl["losses.l1_loss"] + bwd["losses.l1_loss"]) * ms, "ms")
        put("losses.hinge_ms", sum(incl[n] + bwd[n] for n in
                                   ("losses.hinge_d_loss", "losses.g_loss")) * ms, "ms")
        put("metrics.evaluate_self_ms", self.self_time["metrics.evaluate"] * ms, "ms")
        for cmd in ("tokenize", "detokenize", "eval"):
            put(f"cli.{cmd}_ms", incl[f"cli.cmd_{cmd}"] * ms, "ms")
        for modname in MODULES:
            put(f"{modname}.self_ms", sum(v for k, v in self.self_time.items()
                                          if k.startswith(modname + ".")) * ms, "ms")
        put("bench.layer_self_ms_sum", sum(self.self_time.values()) * ms, "ms")
        return out

    def step_split(self, root: str, per: float, step_ms: float) -> dict:
        """Forward / backward / optimiser / other split of a training step."""
        ms = 1000.0 / per
        bwd = opt = fwd = 0.0
        for (parent, child), dt in self.edges.items():
            if parent != root:
                continue
            if child == "tensorcore.backward":
                bwd += dt
            elif child == "trainer.adamw_step":
                opt += dt
            elif child.split(".")[0] in ("model", "quantizer", "losses", "tensorcore") \
                    and child != "model.stream_rng":
                fwd += dt
        return {"trainer.step.fwd_ms": (fwd * ms, "ms"),
                "trainer.step.bwd_ms": (bwd * ms, "ms"),
                "trainer.step.optim_ms": (opt * ms, "ms"),
                "trainer.step.other_ms": (step_ms - (fwd + bwd + opt) * ms, "ms")}
