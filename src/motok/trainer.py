"""AdamW training loop with alternating generator/discriminator updates,
plus the synthetic motion generator used as the desk-scale data source.

Everything is deterministic per seed: parameter init, batch selection, and
synthetic data all draw from independent named RNG streams, and batch indices
are derived from the step number alone so a resumed run replays the exact
trajectory of an uninterrupted one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import heatmap as hm
from . import losses as ls
from . import model as mdl
from . import quantizer as qz
from . import tensorcore as tc
from .errors import ArgumentError, ConfigError, DataError, TrainingError
from .heatmap import KeypointSequence
from .model import ModelConfig, ModelState, check_number, stream_rng
from .tensorcore import Tape, Tensor


@dataclass
class OptimState:
    """AdamW moments for one parameter group; the hyperparameters are ``TrainerConfig``'s."""

    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def export_buffers(self, prefix: str) -> dict:
        out = {f"{prefix}.t": np.array([self.t], dtype=np.int64)}
        for name, arr in self.m.items():
            out[f"{prefix}.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"{prefix}.v.{name}"] = arr
        return out

    def import_buffers(self, prefix: str, buffers: dict, params: dict) -> None:
        """Take the moments ``export_buffers`` wrote for the group ``params``;
        DataError names a buffer that is missing or does not fit it."""
        t = buffers.get(f"{prefix}.t")
        if t is None or t.shape != (1,) or t.dtype.kind != "i" or t[0] < 0:
            raise DataError(f"optimizer buffer {prefix}.t must hold one integer >= 0")
        self.t = int(t[0])
        self.m = {}
        self.v = {}
        for key, arr in buffers.items():
            if not key.startswith((f"{prefix}.m.", f"{prefix}.v.")):
                continue
            name = key[len(prefix) + 3:]
            if name not in params:
                raise DataError(f"optimizer buffer {key} names no parameter of {prefix}")
            if arr.shape != params[name].shape:
                raise DataError(f"optimizer buffer {key} has extents {arr.shape}, "
                                f"its parameter {params[name].shape}")
            (self.m if key[len(prefix) + 1] == "m" else self.v)[name] = arr.copy()


def adamw_step(params: dict, grads: dict, opt: OptimState, tcfg: TrainerConfig) -> None:
    """One AdamW update over a named parameter group, in sorted-name order."""
    opt.t += 1
    bc1 = 1.0 - tcfg.beta1 ** opt.t
    bc2 = 1.0 - tcfg.beta2 ** opt.t
    for name in sorted(params):
        p = params[name]
        g = grads.get(name)
        if g is None:
            continue
        if name not in opt.m:
            opt.m[name] = np.zeros_like(p.data, dtype=np.float32)
            opt.v[name] = np.zeros_like(p.data, dtype=np.float32)
        g32 = g.astype(np.float32, copy=False)
        opt.m[name] = tcfg.beta1 * opt.m[name] + (1.0 - tcfg.beta1) * g32
        opt.v[name] = tcfg.beta2 * opt.v[name] + (1.0 - tcfg.beta2) * (g32 * g32)
        if tcfg.weight_decay:
            p.data -= np.float32(tcfg.lr * tcfg.weight_decay) * p.data
        mhat = opt.m[name] / np.float32(bc1)
        vhat = opt.v[name] / np.float32(bc2)
        p.data -= np.float32(tcfg.lr) * mhat / (np.sqrt(vhat) + np.float32(tcfg.eps))


# ---------------------------------------------------------------------------
# Synthetic motion
# ---------------------------------------------------------------------------

MOTION_FAMILIES = ("pendulum", "walk-cycle", "random-smooth")


@dataclass
class SyntheticMotionSpec:
    """Smooth per-joint trajectories standing in for captured pose data."""

    joints: int = 4
    frames: int = 64
    family: str = "random-smooth"
    noise: float = 0.0
    seed: int = 0
    dims: int = 2
    width: int = 128
    height: int = 128
    depth: int = 128

    def __post_init__(self):
        if self.family not in MOTION_FAMILIES:
            raise ArgumentError(f"family must be one of {MOTION_FAMILIES}")
        if self.joints < 1 or self.frames < 2:
            raise ArgumentError("need joints >= 1 and frames >= 2")
        if self.dims not in (2, 3):
            raise ArgumentError(f"dims must be 2 or 3, got {self.dims}")
        for name in ("width", "height", "depth"):
            check_number(name, getattr(self, name), 1, integer=True)
        check_number("noise", self.noise, 0.0)


def synth_motion(spec: SyntheticMotionSpec) -> KeypointSequence:
    """Deterministic C1-smooth trajectories kept inside the frame bounds."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.frames, dtype=np.float64)
    extents = [spec.width, spec.height] + ([spec.depth] if spec.dims == 3 else [])
    coords = np.zeros((spec.frames, spec.joints, spec.dims))

    for k in range(spec.joints):
        if spec.family == "pendulum":
            period = rng.uniform(20, 60)
            theta0 = rng.uniform(0.3, 1.0)
            phase = rng.uniform(0, 2 * np.pi)
            length = rng.uniform(0.15, 0.35) * min(extents)
            theta = theta0 * np.sin(2 * np.pi * t / period + phase)
            cx = 0.5 * spec.width
            cy = 0.15 * spec.height
            coords[:, k, 0] = cx + length * np.sin(theta)
            coords[:, k, 1] = cy + length * np.cos(theta)
            if spec.dims == 3:
                coords[:, k, 2] = 0.5 * spec.depth \
                    + 0.1 * spec.depth * np.sin(2 * np.pi * t / period)
        elif spec.family == "walk-cycle":
            period = rng.uniform(16, 32)
            phase = rng.uniform(0, 2 * np.pi)
            for d, ext in enumerate(extents):
                center = rng.uniform(0.35, 0.65) * ext
                stride_amp = rng.uniform(0.05, 0.2) * ext
                bounce = rng.uniform(0.01, 0.05) * ext
                wave = stride_amp * np.sin(2 * np.pi * t / period + phase) \
                    + bounce * np.sin(4 * np.pi * t / period + 2 * phase + d)
                coords[:, k, d] = center + wave
        else:  # random-smooth
            for d, ext in enumerate(extents):
                center = rng.uniform(0.3, 0.7) * ext
                margin = min(center, ext - 1 - center) * 0.9
                amps = rng.uniform(0, 1, size=3)
                amps *= margin / max(amps.sum(), 1e-9)
                wave = np.zeros(spec.frames)
                for a in amps:
                    period = rng.uniform(12, 80)
                    phase = rng.uniform(0, 2 * np.pi)
                    wave += a * np.sin(2 * np.pi * t / period + phase)
                coords[:, k, d] = center + wave

    if spec.noise > 0:
        coords += spec.noise * rng.standard_normal(coords.shape)
    hi = np.array(extents, dtype=np.float64) - 1.0
    coords = np.clip(coords, 0.0, hi[None, None, :])
    return KeypointSequence(coords)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainerConfig:
    batch_size: int = 2
    warmup_steps: int = 500          # discriminator frozen (and adv term off) before this
    grad_clip: float = 1.0           # 0 disables clipping
    lr: float = 2.25e-5
    beta1: float = 0.5
    beta2: float = 0.9
    eps: float = 1e-8
    weight_decay: float = 1e-4
    commitment: float = 1.0
    checkpoint_every: int = 0        # 0: only final
    reinit_dead_every: int = 0       # 0: dead-entry reseeding off

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("warmup_steps", 0), ("checkpoint_every", 0),
                          ("reinit_dead_every", 0)):
            check_number(name, getattr(self, name), low, integer=True)
        for name in ("grad_clip", "lr", "eps", "weight_decay", "commitment"):
            check_number(name, getattr(self, name), 0.0)
        for name in ("beta1", "beta2"):
            check_number(name, getattr(self, name), 0.0, math.nextafter(1.0, 0.0))


@dataclass
class TrainResult:
    state: ModelState
    log_lines: list


def prepare_window(config: ModelConfig, item) -> np.ndarray:
    """Render a keypoint window, or take a ``[T,C,H,W]`` array, to a [C,T,H,W]
    f32 array matching the config."""
    t_ext, h_ext, w_ext = config.input_extents
    if isinstance(item, KeypointSequence):
        if config.mode == "triplane":
            vals = hm.render_triplane(item, h_ext, config.sigma)
        else:
            vals = hm.render2d(item, h_ext, w_ext, config.sigma)
    else:
        vals = np.asarray(item)
    if vals.shape != (t_ext, config.in_channels, h_ext, w_ext):
        raise ArgumentError(f"window shape {vals.shape} does not match config "
                            f"({t_ext}, {config.in_channels}, {h_ext}, {w_ext})")
    return np.moveaxis(vals, 0, 1).astype(np.float32)


def prepare_windows(config: ModelConfig, data) -> list:
    """``prepare_window`` of each item of ``data``."""
    return [prepare_window(config, item) for item in data]


def _log_lines_through(log_path: Path, step: int) -> list:
    """The lines of an earlier run's loss log up to and including ``step``.

    A run resumed from a checkpoint taken before that run stopped repeats
    the steps after it, so their old lines must go. A last line without its
    newline is a write cut short and goes too.
    """
    if not log_path.exists():
        return []
    kept = []
    with open(log_path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if not line.endswith(b"\n"):
                break
            try:
                if json.loads(line)["step"] > step:
                    break
            except (ValueError, RecursionError, TypeError, KeyError) as exc:
                raise DataError(f"{log_path}:{lineno}: malformed loss log line: {exc}") from exc
            kept.append(line.decode("utf-8"))
    return kept


def train(config: ModelConfig, data, steps: int, seed: int,
          tcfg: TrainerConfig = None, state: ModelState = None,
          opt_buffers: dict = None, out_dir=None,
          log_stream=None) -> TrainResult:
    """Train until ``state.step == steps``; pass a loaded state to resume.

    Alternates one generator update (reconstruction + VQ + weighted
    adversarial) with one discriminator hinge update per step. With
    ``lambda_adv == 0`` the discriminator is never built, touched, or logged.
    A given ``state`` must have been made with ``config`` and ``seed``.
    Nothing is written before they, ``opt_buffers``, ``steps`` (not below the
    step it starts from) and every item of ``data`` are accepted.

    With ``out_dir``, each step's line is in ``out_dir/loss_log.jsonl``
    before that step's checkpoint; a resume keeps the lines up to its step.
    ``log_stream``, if given, gets the same lines.

    It keeps the items of ``data`` as given, prepares each once up front as
    a check and drops it, then runs ``prepare_window`` on only the windows
    each step draws: it holds the drawn batch, not the dataset. No step's
    gradients outlive its update.
    """
    tcfg = tcfg or TrainerConfig()
    if state is not None and (state.config != config or state.seed != seed):
        saved, given = asdict(state.config) | {"seed": state.seed}, asdict(config) | {"seed": seed}
        raise ConfigError("the state to resume differs from this run in " + ", ".join(
            f"{k} ({saved[k]!r}, not {given[k]!r})" for k in saved if saved[k] != given[k]))
    start = state.step if state is not None else 0
    if steps < start:
        raise ArgumentError(f"steps {steps} is below the step training starts from, {start}")
    items = list(data)
    if not items:
        raise ArgumentError("train requires non-empty data")
    for item in items:
        prepare_window(config, item)  # a bad window raises before anything is written
    adversarial = config.lambda_adv != 0.0
    if state is None:
        state = mdl.build(config, seed, include_discriminator=adversarial)

    gen_params = {n: p for n, p in state.params.items()
                  if n.startswith(("enc.", "dec."))}
    gen_params["codebook.entries"] = state.codebook.entries
    disc_params = {n: p for n, p in state.params.items() if n.startswith("disc.")}
    opt_g, opt_d = OptimState(), OptimState()
    if opt_buffers is not None:
        opt_g.import_buffers("opt_g", opt_buffers, gen_params)
        if adversarial:
            opt_d.import_buffers("opt_d", opt_buffers, disc_params)

    psi = ls.FeatureExtractor(config.in_channels,
                              seed=int(stream_rng(seed, "features").integers(2 ** 31)))

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        log_path = out_dir / "loss_log.jsonl"
        kept = _log_lines_through(log_path, start) if start else []
        out_dir.mkdir(parents=True, exist_ok=True)
        log_path.write_text("".join(kept), encoding="utf-8")
    log_lines = []

    def checkpoint(tag):
        if out_dir is None:
            return
        extra = opt_g.export_buffers("opt_g")
        if adversarial:
            extra |= opt_d.export_buffers("opt_d")
        mdl.save_checkpoint(out_dir / f"ckpt_{tag}.mck", state, extra)

    def update(loss: Tensor, params: dict, opt: OptimState, player: str) -> float:
        """Backward ``loss`` and AdamW-step ``player``'s ``params``, their
        gradients scaled down to global norm ``grad_clip`` when above it; every
        parameter's ``.grad`` is dropped. A non-finite loss or gradient norm
        writes ``ckpt_abort`` and raises TrainingError before anything moves."""
        value = float(loss.numpy())
        tc.backward(loss)
        grads = {n: p.grad for n, p in params.items() if p.grad is not None}
        for p in (gen_params | disc_params).values():
            p.grad = None  # from here on the gradients live in ``grads`` alone
        norm = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
        if not (math.isfinite(value) and math.isfinite(norm)):
            checkpoint("abort")
            raise TrainingError(f"non-finite {player} loss or gradient at step {step}")
        if 0 < tcfg.grad_clip < norm:
            grads = {n: g * np.float32(tcfg.grad_clip / norm) for n, g in grads.items()}
        adamw_step(params, grads, opt, tcfg)
        return value

    while state.step < steps:
        step = state.step + 1
        idx_rng = stream_rng(seed, f"batch.{step}")
        idx = idx_rng.integers(0, len(items), size=tcfg.batch_size)
        x = np.stack([prepare_window(config, items[i]) for i in idx])  # [B,C,T,H,W]
        adv_active = adversarial and step > tcfg.warmup_steps

        with Tape():
            xt = Tensor(x)
            z_e = mdl.encoder_forward(state, xt)
            result = qz.quantize(z_e, state.codebook)
            xhat = mdl.decoder_forward(state, result.z_q)
            l1 = ls.l1_loss(xhat, xt)
            perc = ls.perceptual_loss(xt, xhat, psi)
            vq = qz.vq_loss(z_e, result.e_sel, commitment=tcfg.commitment)
            adv_g = None
            if adv_active:
                adv_g = ls.g_loss(mdl.discriminator_forward(state, xhat))
            lam = config.lambda_adv if adv_active else 0.0
            total = ls.total_generator_loss(perc, l1, vq, adv_g,
                                            config.alpha_perceptual,
                                            config.beta_l1, lam)
            total_val = update(total, gen_params, opt_g, "generator")

        d_val = 0.0
        if adv_active:
            with Tape():
                d_real = mdl.discriminator_forward(state, Tensor(x))
                d_fake = mdl.discriminator_forward(state, Tensor(xhat.data))
                d_val = update(ls.hinge_d_loss(d_real, d_fake), disc_params, opt_d,
                               "discriminator")

        if tcfg.reinit_dead_every and step % tcfg.reinit_dead_every == 0:
            qz.reinit_dead_entries(state.codebook, stream_rng(seed, f"reinit.{step}"))
            state.codebook.reset_usage()

        state.step = step
        line = json.dumps({"step": step, "l1": float(l1.numpy()), "perc": float(perc.numpy()),
                           "vq": float(vq.numpy()),
                           "g": float(adv_g.numpy()) if adv_g is not None else 0.0,
                           "d": d_val, "total": total_val}, separators=(",", ":"))
        log_lines.append(line)
        if out_dir is not None:
            with open(log_path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
        if log_stream is not None:
            log_stream.write(line + "\n")
        if tcfg.checkpoint_every and step % tcfg.checkpoint_every == 0:
            checkpoint(f"{step:07d}")

    checkpoint("final")
    return TrainResult(state, log_lines)
