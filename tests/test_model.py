import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motok import model as mdl
from motok.errors import ArgumentError, ConfigError, DataError, ShapeError
from motok.model import ModelConfig
from motok.quantizer import TokenGrid
from motok.tensorcore import Tensor

from helpers import FUZZ, corrupt, corruptions, rewrite_checkpoint_header


def small_config(**kw):
    base = dict(compression="F8", vocab=32, embed_dim=8, base_channels=8,
                in_channels=2, input_extents=(8, 16, 16))
    base.update(kw)
    return ModelConfig(**base)


class TestStreamRng:
    def test_same_role_reproducible(self):
        a = mdl.stream_rng(7, "encoder").integers(1 << 30, size=4)
        b = mdl.stream_rng(7, "encoder").integers(1 << 30, size=4)
        assert np.array_equal(a, b)

    def test_roles_independent(self):
        a = mdl.stream_rng(7, "encoder").integers(1 << 30, size=4)
        b = mdl.stream_rng(7, "decoder").integers(1 << 30, size=4)
        assert not np.array_equal(a, b)

    def test_seeds_independent(self):
        a = mdl.stream_rng(7, "encoder").integers(1 << 30, size=4)
        b = mdl.stream_rng(8, "encoder").integers(1 << 30, size=4)
        assert not np.array_equal(a, b)


class TestConfig:
    def test_compression_arithmetic_reference(self):
        # reference sequence resolution 64x128x128 under all three factors
        cases = {
            "F8": ((8, 16, 16), 512),
            "F16": ((4, 8, 8), 4096),
            "F32": ((2, 4, 4), 32768),
        }
        for comp, (lattice, ratio) in cases.items():
            cfg = ModelConfig(compression=comp, vocab=512, embed_dim=8,
                              base_channels=8, in_channels=1,
                              input_extents=(64, 128, 128))
            assert cfg.latent_extents == lattice
            assert cfg.compression_factor == ratio
            total = np.prod(cfg.input_extents) // np.prod(cfg.latent_extents)
            assert total == ratio

    def test_stage_counts(self):
        assert small_config(compression="F8").stages == 3
        assert small_config(compression="F16", input_extents=(16, 16, 16)).stages == 4
        assert small_config(compression="F32", input_extents=(32, 32, 32)).stages == 5

    def test_stage_widths_double_and_cap(self):
        cfg = small_config(base_channels=64, compression="F32",
                           input_extents=(32, 32, 32))
        assert cfg.stage_widths() == [64, 128, 256, 256, 256, 256]

    def test_bad_compression(self):
        with pytest.raises(ConfigError):
            small_config(compression="F4")

    def test_indivisible_extent(self):
        with pytest.raises(ConfigError):
            small_config(input_extents=(12, 16, 16))

    def test_tiny_vocab(self):
        with pytest.raises(ConfigError):
            small_config(vocab=1)

    @pytest.mark.parametrize("field, value", [
        ("embed_dim", True), ("vocab", 32.0), ("compression", ["F8"]), ("mode", "3d"),
        ("sigma", 0.0), ("sigma", float("nan")), ("lambda_adv", float("inf")),
        ("beta_l1", -1.0), ("input_extents", (0, 16, 16)), ("input_extents", "abc"),
    ])
    def test_bad_field_value(self, field, value):
        with pytest.raises(ConfigError):
            small_config(**{field: value})


class TestBuild:
    def test_deterministic(self):
        a = mdl.build(small_config(), seed=3)
        b = mdl.build(small_config(), seed=3)
        assert sorted(a.params) == sorted(b.params)
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data)
        assert np.array_equal(a.codebook.entries.data, b.codebook.entries.data)

    def test_seed_changes_weights(self):
        a = mdl.build(small_config(), seed=3)
        b = mdl.build(small_config(), seed=4)
        assert not np.array_equal(a.params["enc.stem.w"].data,
                                  b.params["enc.stem.w"].data)

    def test_discriminator_presence_does_not_shift_generator(self):
        cfg = small_config()
        with_d = mdl.build(cfg, seed=5, include_discriminator=True)
        without = mdl.build(cfg, seed=5, include_discriminator=False)
        assert not without.has_discriminator
        assert all(not k.startswith("disc.") for k in without.params)
        for k, v in without.params.items():
            assert np.array_equal(v.data, with_d.params[k].data)
        assert np.array_equal(without.codebook.entries.data,
                              with_d.codebook.entries.data)

    def test_lambda_zero_default_omits_discriminator(self):
        state = mdl.build(small_config(lambda_adv=0.0), seed=0)
        assert not state.has_discriminator


class TestForward:
    def batch(self, cfg, n=1, seed=0):
        rng = np.random.default_rng(seed)
        t, h, w = cfg.input_extents
        return Tensor(rng.uniform(size=(n, cfg.in_channels, t, h, w)).astype(np.float32))

    def test_encoder_shape(self):
        cfg = small_config()
        state = mdl.build(cfg, seed=0)
        z = mdl.encoder_forward(state, self.batch(cfg))
        assert z.shape == (1, cfg.embed_dim) + cfg.latent_extents

    def test_decoder_shape_and_range(self):
        cfg = small_config()
        state = mdl.build(cfg, seed=0)
        rng = np.random.default_rng(1)
        z = Tensor(rng.normal(size=(1, cfg.embed_dim) + cfg.latent_extents)
                   .astype(np.float32))
        out = mdl.decoder_forward(state, z)
        assert out.shape == (1, cfg.in_channels) + cfg.input_extents
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_discriminator_logits(self):
        cfg = small_config()
        state = mdl.build(cfg, seed=0)
        logits = mdl.discriminator_forward(state, self.batch(cfg, n=3))
        assert logits.shape == (3,)

    def test_discriminator_missing(self):
        state = mdl.build(small_config(), seed=0, include_discriminator=False)
        with pytest.raises(ArgumentError):
            mdl.discriminator_forward(state, self.batch(state.config))

    def test_encode_decode_round_trip_shapes(self):
        cfg = small_config()
        state = mdl.build(cfg, seed=0)
        rng = np.random.default_rng(2)
        t, h, w = cfg.input_extents
        frames = rng.uniform(size=(t, cfg.in_channels, h, w)).astype(np.float32)
        z_e, grid, z_q = mdl.encode(state, np.moveaxis(frames, 0, 1)[None])
        assert grid.extents == cfg.latent_extents
        assert grid.vocab == cfg.vocab
        vol = mdl.decode(state, grid)
        assert vol.shape == frames.shape

    def test_batch_encode_matches_single_calls(self):
        cfg = small_config(input_extents=(16, 32, 32))
        state = mdl.build(cfg, seed=0)
        x = self.batch(cfg, n=3, seed=4).data
        z_e, grids, z_q = mdl.encode(state, x)
        assert z_e.data.tobytes() == mdl.encoder_forward(state, Tensor(x)).data.tobytes()
        for i in range(3):
            z_e1, grid, z_q1 = mdl.encode(state, x[i:i + 1])
            assert z_e1.data.tobytes() == z_e.data[i:i + 1].tobytes()
            assert np.array_equal(grid.indices, grids[i].indices)
            assert z_q1.data.tobytes() == z_q.data[i:i + 1].tobytes()

    def test_encode_holds_one_sample_of_activations(self):
        cfg = small_config(input_extents=(16, 32, 32))
        state = mdl.build(cfg, seed=0)
        x = self.batch(cfg, n=4, seed=4).data

        def peak(batch):
            tracemalloc.start()
            try:
                mdl.encode(state, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(x[:1]), peak(x)
        assert four <= 1.25 * one, (four, one)

    def test_encode_wrong_extent(self):
        state = mdl.build(small_config(), seed=0)
        with pytest.raises(ShapeError) as err:
            mdl.encode(state, np.zeros((1, 2, 8, 16, 8), dtype=np.float32))
        assert "W" in str(err.value)

    def test_encode_rejects_empty_batch(self):
        state = mdl.build(small_config(), seed=0)
        with pytest.raises(ShapeError):
            mdl.encode(state, np.zeros((0, 2, 8, 16, 16), dtype=np.float32))

    def test_encode_rejects_unbatched_window(self):
        # C == T, so a [C,T,H,W] window would pass any extent check if it
        # were taken for a frame-major volume and transposed.
        state = mdl.build(small_config(in_channels=8, input_extents=(8, 16, 16)), seed=0)
        with pytest.raises(ShapeError):
            mdl.encode(state, np.zeros((8, 8, 16, 16), dtype=np.float32))

    def test_decode_wrong_lattice(self):
        state = mdl.build(small_config(), seed=0)
        grid = TokenGrid((2, 2, 2), np.zeros((2, 2, 2), dtype=np.int64), 32)
        with pytest.raises(ShapeError):
            mdl.decode(state, grid)

    def test_decode_index_out_of_range(self):
        state = mdl.build(small_config(), seed=0)
        t, h, w = state.config.latent_extents
        grid = TokenGrid((t, h, w), np.full((t, h, w), 40, dtype=np.int64), 64)
        with pytest.raises(DataError):
            mdl.decode(state, grid)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        state = mdl.build(small_config(), seed=9)
        state.step = 123
        state.codebook.usage[:] = np.arange(32)
        extra = {"opt_g.m.enc.stem.w": np.random.default_rng(0)
                 .normal(size=state.params["enc.stem.w"].shape).astype(np.float32)}
        p = tmp_path / "ck.mck"
        mdl.save_checkpoint(p, state, extra)
        back, back_extra = mdl.load_checkpoint(p)
        assert back.step == 123 and back.seed == 9
        assert back.config == state.config
        assert sorted(back.params) == sorted(state.params)
        for k in state.params:
            assert np.array_equal(back.params[k].data, state.params[k].data)
            assert back.params[k].data.dtype == state.params[k].data.dtype
        assert np.array_equal(back.codebook.entries.data, state.codebook.entries.data)
        assert np.array_equal(back.codebook.usage, state.codebook.usage)
        assert np.array_equal(back_extra["opt_g.m.enc.stem.w"],
                              extra["opt_g.m.enc.stem.w"])

    def test_double_round_trip_identical_bytes(self, tmp_path):
        state = mdl.build(small_config(), seed=1)
        p1, p2 = tmp_path / "a.mck", tmp_path / "b.mck"
        mdl.save_checkpoint(p1, state)
        back, extra = mdl.load_checkpoint(p1)
        mdl.save_checkpoint(p2, back, extra)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "ck.mck"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            mdl.load_checkpoint(p)

    def test_truncated(self, tmp_path):
        state = mdl.build(small_config(), seed=1)
        p = tmp_path / "ck.mck"
        mdl.save_checkpoint(p, state)
        blob = p.read_bytes()
        p.write_bytes(blob[:len(blob) - 64])
        with pytest.raises(DataError):
            mdl.load_checkpoint(p)


def _first_buffer(header):
    return header["manifest"][sorted(header["manifest"])[0]]


# Each edit turns the header of a valid checkpoint into a malformed one.
BAD_HEADERS = {
    "unknown-dtype": lambda h: _first_buffer(h).update(dtype="f16"),
    "missing-step": lambda h: {k: v for k, v in h.items() if k != "step"},
    "json-array": lambda h: [h],
    "unknown-config-field": lambda h: h["config"].update(wat=1),
    "bad-config-value": lambda h: h["config"].update(compression="F4"),
    "negative-offset": lambda h: _first_buffer(h).update(offset=-8),
    "negative-extent": lambda h: _first_buffer(h).update(extents=[-1]),
    "offset-past-end": lambda h: _first_buffer(h).update(offset=1 << 40),
    "manifest-not-object": lambda h: h.update(manifest=[]),
    "step-not-number": lambda h: h.update(step="x"),
    "step-numeric-string": lambda h: h.update(step="12"),
    "seed-float": lambda h: h.update(seed=3.7),
    "discriminator-flag-string": lambda h: h.update(has_discriminator="no"),
    "usage-extents": lambda h: h["manifest"]["codebook.usage"].update(extents=[3]),
    "param-extents": lambda h: h["manifest"]["enc.stem.w"].update(extents=[1]),
    "param-missing": lambda h: {**h, "manifest": {
        k: v for k, v in h["manifest"].items() if k != "enc.stem.b"}},
    "param-unknown": lambda h: h["manifest"].update(
        {"enc.extra.w": h["manifest"]["enc.stem.b"]}),
    "entries-extents": lambda h: h["manifest"]["codebook.entries"].update(extents=[32, 4]),
    "entries-dtype": lambda h: h["manifest"]["codebook.entries"].update(dtype="i64"),
    "usage-dtype": lambda h: h["manifest"]["codebook.usage"].update(dtype="f32"),
    # not the last buffer, whose f64 read would run past the file's end
    "param-dtype": lambda h: h["manifest"]["dec.head.proj.w"].update(dtype="f64"),
    "discriminator-flag": lambda h: h.update(has_discriminator=False),
    "usage-missing": lambda h: {**h, "manifest": {
        k: v for k, v in h["manifest"].items() if k != "codebook.usage"}},
    "sigma-not-number": lambda h: h["config"].update(sigma="x"),
    "base-channels-string": lambda h: h["config"].update(base_channels="4"),
    "unknown-mode": lambda h: h["config"].update(mode="3d"),
}


class TestCheckpointHeader:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("ck") / "ok.mck"
        mdl.save_checkpoint(p, mdl.build(small_config(), seed=2))
        return p

    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_malformed_header_is_data_error(self, valid, tmp_path, case):
        p = tmp_path / "bad.mck"
        rewrite_checkpoint_header(valid, p, BAD_HEADERS[case])
        with pytest.raises(DataError):
            mdl.load_checkpoint(p)

    def test_header_length_beyond_file(self, tmp_path):
        p = tmp_path / "bad.mck"
        p.write_bytes(b"MCK1" + (1000).to_bytes(4, "little") + b"{}")
        with pytest.raises(DataError):
            mdl.load_checkpoint(p)

    @FUZZ
    @given(data=st.data())
    def test_corrupt_header_loads_or_is_data_error(self, valid, tmp_path, data):
        blob = valid.read_bytes()
        head = 8 + int.from_bytes(blob[4:8], "little")
        p = tmp_path / "bad.mck"
        p.write_bytes(corrupt(blob, data.draw(corruptions(len(blob), head))))
        try:
            mdl.load_checkpoint(p)
        except DataError:
            pass

    def test_unedited_header_loads(self, valid, tmp_path):
        p = tmp_path / "same.mck"
        rewrite_checkpoint_header(valid, p, lambda h: None)
        state, _ = mdl.load_checkpoint(p)
        assert state.seed == 2
