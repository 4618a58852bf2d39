"""Encoder / decoder (generator) / discriminator over heatmap volumes.

The architecture is rebuilt from the config on every call: a ``ModelState``
is just a flat name -> parameter-tensor map plus the codebook, which keeps
checkpointing trivial and save/load bit-exact. Per-axis downsampling is 8, 16,
or 32 (F8/F16/F32), applied to T, H, and W alike, so the total volume
compression is the cube of the per-axis factor (512x / 4096x / 32768x).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import quantizer as qz
from . import tensorcore as tc
from .errors import ArgumentError, ConfigError, DataError, ShapeError
from .quantizer import Codebook, TokenGrid
from .tensorcore import Tensor

_FACTORS = {"F8": 8, "F16": 16, "F32": 32}
_CHANNEL_CAP = 256
_REAL_MAX = sys.float_info.max
_POSITIVE = math.nextafter(0.0, 1.0)  # as ``low`` of check_number: the value must be > 0


def check_number(name: str, value, low, high=_REAL_MAX, integer: bool = False) -> None:
    """ConfigError unless ``value`` is an int (or, unless ``integer``, a
    float) in ``[low, high]``; bools, NaN and infinities are rejected."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not low <= value <= high:
        bounds = f">= {low}" if high == _REAL_MAX else f"in [{low}, {high}]"
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind} {bounds}, got {value!r}")


def stream_rng(seed: int, role: str) -> np.random.Generator:
    """Named-stream RNG split: one master seed, independent per-role streams."""
    digest = hashlib.sha256(role.encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(
        [int(seed) & 0xFFFFFFFFFFFFFFFF, int.from_bytes(digest[:8], "little")]))


@dataclass
class ModelConfig:
    compression: str = "F8"
    vocab: int = 128
    embed_dim: int = 256
    base_channels: int = 32
    in_channels: int = 19
    input_extents: tuple = (64, 128, 128)
    lambda_adv: float = 0.1
    alpha_perceptual: float = 1.0
    beta_l1: float = 1.0
    sigma: float = 2.0
    mode: str = "2d"  # pose dimensionality tag: "2d" or "triplane"

    def __post_init__(self):
        if not isinstance(self.compression, str) or self.compression not in _FACTORS:
            raise ConfigError(f"compression must be one of {sorted(_FACTORS)}, "
                              f"got {self.compression!r}")
        if self.mode not in ("2d", "triplane"):
            raise ConfigError(f"mode must be '2d' or 'triplane', got {self.mode!r}")
        for name, low in (("vocab", 2), ("embed_dim", 1), ("base_channels", 1),
                          ("in_channels", 1)):
            check_number(name, getattr(self, name), low, integer=True)
        for name in ("lambda_adv", "alpha_perceptual", "beta_l1"):
            check_number(name, getattr(self, name), 0.0)
        check_number("sigma", self.sigma, _POSITIVE)
        if not isinstance(self.input_extents, (list, tuple)) or len(self.input_extents) != 3:
            raise ConfigError(f"input_extents must be [T, H, W], got {self.input_extents!r}")
        self.input_extents = tuple(self.input_extents)
        f = self.factor
        for name, ext in zip("THW", self.input_extents):
            check_number(f"input_extents {name}", ext, 1, integer=True)
            if ext % f != 0:
                raise ConfigError(f"axis {name}: extent {ext} not divisible by factor {f}")

    @property
    def factor(self) -> int:
        return _FACTORS[self.compression]

    @property
    def stages(self) -> int:
        return self.factor.bit_length() - 1  # log2

    @property
    def latent_extents(self) -> tuple:
        return tuple(e // self.factor for e in self.input_extents)

    @property
    def compression_factor(self) -> int:
        return self.factor ** 3

    def stage_widths(self) -> list:
        """Channel width entering each stage; doubles per stage, capped."""
        widths = [self.base_channels]
        for _ in range(self.stages):
            widths.append(min(widths[-1] * 2, _CHANNEL_CAP))
        return widths


@dataclass
class ModelState:
    config: ModelConfig
    params: dict                      # name -> Tensor (requires_grad)
    codebook: Codebook
    step: int = 0
    seed: int = 0
    has_discriminator: bool = True


def _groups_for(channels: int) -> int:
    for g in (8, 4, 2, 1):
        if channels % g == 0:
            return g
    return 1


_STREAMS = {"enc": "encoder", "dec": "decoder", "disc": "discriminator"}


def param_layout(config: ModelConfig, include_discriminator: bool) -> dict:
    """Parameter name -> extents, in the order ``build`` initializes them.

    ``build`` draws its weights from this table and ``load_checkpoint`` checks
    a manifest against it, so both agree on the architecture without drawing.
    """
    layout: dict = {}

    def conv(name, c_in, c_out, k):
        layout[f"{name}.w"] = (c_out, c_in, k, k, k)
        layout[f"{name}.b"] = (c_out,)

    def norm(name, channels):
        layout[f"{name}.g"] = (channels,)
        layout[f"{name}.o"] = (channels,)

    def resblock(name, channels):
        norm(f"{name}.norm1", channels)
        conv(f"{name}.conv1", channels, channels, 3)
        norm(f"{name}.norm2", channels)
        conv(f"{name}.conv2", channels, channels, 3)

    widths = config.stage_widths()
    conv("enc.stem", config.in_channels, widths[0], 3)
    for s in range(config.stages):
        for r in range(2):
            resblock(f"enc.stage{s}.res{r}", widths[s])
        conv(f"enc.stage{s}.down", widths[s], widths[s + 1], 3)
    norm("enc.head.norm", widths[-1])
    conv("enc.head.proj", widths[-1], config.embed_dim, 1)

    conv("dec.head.proj", config.embed_dim, widths[-1], 1)
    for s in reversed(range(config.stages)):
        for r in range(2):
            resblock(f"dec.stage{s}.res{r}", widths[s + 1])
        conv(f"dec.stage{s}.up", widths[s + 1], widths[s], 3)
    norm("dec.out.norm", widths[0])
    conv("dec.out.proj", widths[0], config.in_channels, 3)

    if include_discriminator:
        dc = config.base_channels
        conv("disc.conv0", config.in_channels, dc, 3)
        conv("disc.conv1", dc, dc * 2, 3)
        conv("disc.conv2", dc * 2, dc * 4, 3)
        conv("disc.out", dc * 4, 1, 1)
    return layout


def build(config: ModelConfig, seed: int, include_discriminator=None) -> ModelState:
    """Deterministically initialized model; per-role RNG streams keep the
    discriminator's presence from shifting any other parameter draw."""
    if include_discriminator is None:
        include_discriminator = config.lambda_adv != 0.0
    rngs = {prefix: stream_rng(seed, role) for prefix, role in _STREAMS.items()}
    params: dict = {}
    for name, shape in param_layout(config, include_discriminator).items():
        kind = name.rsplit(".", 1)[1]
        if kind == "w":  # conv kernel, He-normal over its fan-in
            std = np.sqrt(2.0 / math.prod(shape[1:]))
            data = rngs[name.split(".", 1)[0]].normal(0.0, std, size=shape)
        else:  # norm gains start at one, biases and norm offsets at zero
            data = np.full(shape, 1.0 if kind == "g" else 0.0)
        params[name] = Tensor(data.astype(np.float32), requires_grad=True)

    book = qz.init_codebook(config.vocab, config.embed_dim,
                            int(stream_rng(seed, "codebook").integers(2 ** 63)))
    return ModelState(config, params, book, step=0, seed=seed,
                      has_discriminator=bool(include_discriminator))


def _conv(state, name, x, stride=1, padding=0):
    return tc.conv3d(x, state.params[f"{name}.w"], state.params[f"{name}.b"],
                     stride=stride, padding=padding)


def _norm_act(state, name, x):
    c = x.shape[1]
    return tc.group_norm_swish(x, _groups_for(c), state.params[f"{name}.g"],
                               state.params[f"{name}.o"])


def _resblock(state, name, x):
    h = _norm_act(state, f"{name}.norm1", x)
    h = _conv(state, f"{name}.conv1", h, padding=1)
    h = _norm_act(state, f"{name}.norm2", h)
    h = _conv(state, f"{name}.conv2", h, padding=1)
    return tc.add(x, h)


def encoder_forward(state: ModelState, x: Tensor) -> Tensor:
    h = _conv(state, "enc.stem", x, padding=1)
    for s in range(state.config.stages):
        for r in range(2):
            h = _resblock(state, f"enc.stage{s}.res{r}", h)
        h = _conv(state, f"enc.stage{s}.down", h, stride=2, padding=1)
    h = _norm_act(state, "enc.head.norm", h)
    return _conv(state, "enc.head.proj", h)


def decoder_forward(state: ModelState, z_q: Tensor) -> Tensor:
    h = _conv(state, "dec.head.proj", z_q)
    for s in reversed(range(state.config.stages)):
        for r in range(2):
            h = _resblock(state, f"dec.stage{s}.res{r}", h)
        h = tc.upsample_conv3d(h, state.params[f"dec.stage{s}.up.w"],
                               state.params[f"dec.stage{s}.up.b"])
    h = _norm_act(state, "dec.out.norm", h)
    h = _conv(state, "dec.out.proj", h, padding=1)
    return tc.sigmoid(h)


def discriminator_forward(state: ModelState, x: Tensor) -> Tensor:
    if not state.has_discriminator:
        raise ArgumentError("model was built without a discriminator")
    h = tc.leaky_relu(_conv(state, "disc.conv0", x, stride=2, padding=1))
    h = tc.leaky_relu(_conv(state, "disc.conv1", h, stride=2, padding=1))
    h = tc.leaky_relu(_conv(state, "disc.conv2", h, stride=2, padding=1))
    h = _conv(state, "disc.out", h)
    n = h.shape[0]
    return tc.row_mean(tc.reshape(h, (n, -1)))


def encode(state: ModelState, batch: np.ndarray):
    """Run the encoder and quantizer on a [N,C,T,H,W] batch; returns (z_e, grids, z_q).

    ``grids`` is one TokenGrid for a batch of one and a list of TokenGrids,
    one per batch element, otherwise. The encoder runs on one sample at a
    time: beyond its input and the latents, encode holds one sample's
    activations, and ``z_e`` is bit-identical to a whole-batch pass.
    """
    x = np.asarray(batch, dtype=np.float32)
    if x.ndim != 5 or not len(x):
        raise ShapeError(f"encode expects a non-empty [N,C,T,H,W] batch, got shape {x.shape}")
    want = (state.config.in_channels, *state.config.input_extents)
    for name, got, expected in zip("CTHW", x.shape[1:], want):
        if got != expected:
            raise ShapeError(f"axis {name}: got {got}, config expects {expected}")
    z_e = Tensor(np.concatenate([encoder_forward(state, Tensor(x[i:i + 1])).data
                                 for i in range(len(x))]))
    result = qz.quantize(z_e, state.codebook)
    grids = result.grids[0] if len(result.grids) == 1 else result.grids
    return z_e, grids, result.z_q


def decode(state: ModelState, grid: TokenGrid) -> np.ndarray:
    """Map a token grid back to a frame-major [T,C,H,W] f32 volume in [0,1]."""
    if tuple(grid.extents) != state.config.latent_extents:
        raise ShapeError(f"grid extents {grid.extents} != latent lattice "
                         f"{state.config.latent_extents}")
    if grid.vocab > state.codebook.vocab or int(grid.indices.max()) >= state.codebook.vocab:
        raise DataError("token index out of codebook range")
    entries = state.codebook.entries.data[grid.indices.reshape(-1)]
    t, h, w = grid.extents
    z_q = np.moveaxis(entries.reshape(1, t, h, w, -1), 4, 1)
    out = decoder_forward(state, Tensor(z_q.astype(np.float32)))
    return np.moveaxis(out.data[0], 0, 1)


# ---------------------------------------------------------------------------
# "MCK1" checkpoint: magic, u32 header length, JSON header {config, step,
# seed, manifest name -> dtype/extents/offset}, then raw LE buffers.
# ---------------------------------------------------------------------------

_MCK_MAGIC = b"MCK1"
_NP_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "i64": np.dtype("<i8")}


def _dtype_tag(dt: np.dtype) -> str:
    for tag, cand in _NP_TAGS.items():
        if cand == dt.newbyteorder("<"):
            return tag
    raise ArgumentError(f"unsupported checkpoint dtype {dt}")


def save_checkpoint(path, state: ModelState, extra: dict = None) -> None:
    buffers: dict[str, np.ndarray] = {name: p.data for name, p in state.params.items()}
    buffers["codebook.entries"] = state.codebook.entries.data
    buffers["codebook.usage"] = state.codebook.usage
    for name, arr in (extra or {}).items():
        buffers[f"extra.{name}"] = np.asarray(arr)

    manifest = {}
    offset = 0
    blobs = []
    for name in sorted(buffers):
        arr = np.ascontiguousarray(buffers[name])
        tag = _dtype_tag(arr.dtype)
        raw = arr.astype(_NP_TAGS[tag], copy=False).tobytes()
        manifest[name] = {"dtype": tag, "extents": list(arr.shape), "offset": offset}
        blobs.append(raw)
        offset += len(raw)

    header = json.dumps({
        "config": asdict(state.config),
        "step": state.step,
        "seed": state.seed,
        "has_discriminator": state.has_discriminator,
        "manifest": manifest,
    }, sort_keys=True).encode("utf-8")
    tc.write_artifact(path, [_MCK_MAGIC, struct.pack("<I", len(header)), header] + blobs)


_HEADER_KEYS = ("config", "has_discriminator", "manifest", "seed", "step")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return _is_int(v) and v >= 0


def _buffer_meta(name: str, meta, path) -> tuple:
    """One manifest entry, checked -> (dtype, extents, offset in the data region)."""
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path}: manifest entry {name} is not an object")
    tag, extents, offset = meta.get("dtype"), meta.get("extents"), meta.get("offset")
    if not isinstance(tag, str) or tag not in _NP_TAGS:
        raise DataError(f"checkpoint {path}: buffer {name} has unknown dtype {tag!r}")
    if not (isinstance(extents, list) and all(_is_count(e) for e in extents)):
        raise DataError(f"checkpoint {path}: buffer {name} has bad extents {extents!r}")
    if not _is_count(offset):
        raise DataError(f"checkpoint {path}: buffer {name} has bad offset {offset!r}")
    return _NP_TAGS[tag], tuple(extents), offset


def load_checkpoint(path):
    """Returns (ModelState, extra dict); bit-exact round-trip with save.

    The header is checked before any of its values is used, and every buffer
    but the ``extra.*`` ones against the architecture its config builds: a
    malformed file raises DataError and nothing else.
    """
    blob = tc.read_artifact(path, _MCK_MAGIC)
    hlen, = tc.unpack_at(blob, "<I", 4, path)
    raw, = tc.unpack_at(blob, f"<{hlen}s", 8, path)
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long an int
        raise DataError(f"corrupt checkpoint header in {path}") from exc
    if not isinstance(header, dict) or any(k not in header for k in _HEADER_KEYS):
        raise DataError(f"checkpoint header in {path} must be an object with keys "
                        f"{', '.join(_HEADER_KEYS)}")
    if not isinstance(header["manifest"], dict) or not isinstance(header["config"], dict):
        raise DataError(f"checkpoint header in {path}: manifest and config must be objects")
    step, seed, has_discriminator = (header[k] for k in ("step", "seed", "has_discriminator"))
    if not (_is_count(step) and _is_int(seed) and isinstance(has_discriminator, bool)):
        raise DataError(f"checkpoint header in {path}: step must be an integer >= 0, seed "
                        "an integer and has_discriminator a boolean")
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ValueError, OverflowError) as exc:  # incl. ConfigError
        raise DataError(f"invalid checkpoint header in {path}: {exc}") from exc
    buffers = {name: _buffer_meta(name, meta, path)
               for name, meta in header["manifest"].items()}
    extras = {name: buffers.pop(name) for name in list(buffers) if name.startswith("extra.")}

    layout = param_layout(config, has_discriminator)
    layout["codebook.entries"] = (config.vocab, config.embed_dim)
    layout["codebook.usage"] = (config.vocab,)
    if buffers.keys() != layout.keys():
        missing = sorted(layout.keys() - buffers.keys())
        unknown = sorted(buffers.keys() - layout.keys())
        raise DataError(f"checkpoint {path} does not match its config: "
                        f"missing {missing}, unknown {unknown}")
    for name, extents in layout.items():  # the dtypes save_checkpoint writes
        dtype = _NP_TAGS["i64" if name == "codebook.usage" else "f32"]
        if buffers[name][:2] != (dtype, extents):
            raise DataError(f"checkpoint {path}: buffer {name} holds {buffers[name][0]} "
                            f"{buffers[name][1]}, config expects {dtype} {extents}")

    def read(meta) -> np.ndarray:
        dtype, extents, offset = meta
        return tc.array_at(blob, dtype, extents, 8 + hlen + offset, path)

    try:
        book = Codebook(Tensor(read(buffers.pop("codebook.entries")), requires_grad=True),
                        read(buffers.pop("codebook.usage")))
    except ValueError as exc:  # non-finite entries
        raise DataError(f"invalid codebook in {path}: {exc}") from exc
    params = {name: Tensor(read(meta), requires_grad=True) for name, meta in buffers.items()}
    extra = {name[len("extra."):]: read(meta) for name, meta in extras.items()}
    state = ModelState(config, params, book, step=step, seed=seed,
                       has_discriminator=has_discriminator)
    return state, extra
