import io
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from motok import heatmap as hm
from motok import model as mdl
from motok import tensorcore as tc
from motok import trainer as tr
from motok.errors import ArgumentError, ConfigError, DataError, TrainingError
from motok.model import ModelConfig
from motok.tensorcore import Tensor
from motok.trainer import OptimState, SyntheticMotionSpec, TrainerConfig


def adamw_scalar_reference(x0, grads_per_step, lr, b1, b2, eps, wd):
    """Scalar-loop AdamW oracle with the same float32 rounding as the update."""
    f = np.float32
    x = [f(v) for v in x0]
    m = [f(0)] * len(x0)
    v = [f(0)] * len(x0)
    history = []
    for t, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for i, g in enumerate(grads):
            g = f(g)
            m[i] = f(b1) * m[i] + f(1.0 - b1) * g
            v[i] = f(b2) * v[i] + f(1.0 - b2) * (g * g)
            if wd:
                x[i] = x[i] - f(lr * wd) * x[i]
            mhat = m[i] / f(bc1)
            vhat = v[i] / f(bc2)
            x[i] = x[i] - f(lr) * mhat / (np.sqrt(vhat) + f(eps))
        history.append(list(x))
    return history


def tiny_config(**kw):
    base = dict(compression="F8", vocab=16, embed_dim=8, base_channels=8,
                in_channels=2, input_extents=(8, 16, 16), lambda_adv=0.0)
    base.update(kw)
    return ModelConfig(**base)


def tiny_windows(cfg, n=3, seed=0):
    rng = np.random.default_rng(seed)
    t, h, w = cfg.input_extents
    return [rng.uniform(size=(t, cfg.in_channels, h, w)).astype(np.float32)
            for _ in range(n)]


def fast_tcfg(**kw):
    base = dict(lr=1e-3, warmup_steps=2)
    base.update(kw)
    return TrainerConfig(**base)


class TestAdamw:
    def test_ten_step_trajectory_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=4).astype(np.float32)
        grads = [rng.normal(size=4).astype(np.float32) for _ in range(10)]
        lr, b1, b2, eps, wd = 1e-2, 0.5, 0.9, 1e-8, 1e-2

        p = Tensor(x0.copy(), requires_grad=True)
        opt = OptimState()
        tcfg = TrainerConfig(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        want = adamw_scalar_reference(x0, grads, lr, b1, b2, eps, wd)
        for t in range(10):
            tr.adamw_step({"p": p}, {"p": grads[t]}, opt, tcfg)
            assert np.max(np.abs(p.data.astype(np.float64)
                                 - np.array(want[t], dtype=np.float64))) < 1e-12

    def test_no_decay_defaults(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = OptimState()
        tr.adamw_step({"p": p}, {"p": np.zeros(2, dtype=np.float32)}, opt,
                      TrainerConfig(lr=0.1, weight_decay=0.0))
        assert np.array_equal(p.data, np.ones(2, dtype=np.float32))

    def test_decoupled_decay_with_zero_grad(self):
        p = Tensor(np.full(2, 2.0, dtype=np.float32), requires_grad=True)
        opt = OptimState()
        tr.adamw_step({"p": p}, {"p": np.zeros(2, dtype=np.float32)}, opt,
                      TrainerConfig(lr=0.1, weight_decay=0.5))
        assert np.allclose(p.data, 2.0 * (1 - 0.1 * 0.5))

    def test_missing_grad_skipped(self):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        opt = OptimState()
        tr.adamw_step({"p": p}, {}, opt, TrainerConfig())
        assert np.array_equal(p.data, np.ones(2, dtype=np.float32))

    def test_buffer_round_trip(self):
        rng = np.random.default_rng(1)
        p = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=True)
        opt = OptimState()
        for _ in range(3):
            tr.adamw_step({"p": p}, {"p": rng.normal(size=3).astype(np.float32)}, opt,
                          TrainerConfig(lr=1e-2))
        buffers = opt.export_buffers("opt_g")
        fresh = OptimState()
        fresh.import_buffers("opt_g", buffers, {"p": p})
        assert fresh.t == opt.t
        assert np.array_equal(fresh.m["p"], opt.m["p"])
        assert np.array_equal(fresh.v["p"], opt.v["p"])

    # Buffers that do not fit the group {"p": 3 elements}; each must raise
    # DataError naming the buffer.
    BAD_BUFFERS = {
        "t-missing": ({}, "opt_g.t"),
        "t-negative": ({"opt_g.t": np.array([-1])}, "opt_g.t"),
        "t-two-values": ({"opt_g.t": np.array([1, 2])}, "opt_g.t"),
        "t-float": ({"opt_g.t": np.array([1.0])}, "opt_g.t"),
        "moment-of-no-parameter": ({"opt_g.t": np.array([1]), "opt_g.m.q": np.zeros(3)},
                                   "opt_g.m.q"),
        "moment-extents": ({"opt_g.t": np.array([1]), "opt_g.v.p": np.zeros(4)}, "opt_g.v.p"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_BUFFERS))
    def test_import_rejects_buffers_not_fitting_group(self, case):
        buffers, name = self.BAD_BUFFERS[case]
        p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(DataError, match=re.escape(name)):
            OptimState().import_buffers("opt_g", buffers, {"p": p})


class TestSynthMotion:
    @pytest.mark.parametrize("family", tr.MOTION_FAMILIES)
    @pytest.mark.parametrize("dims", [2, 3])
    def test_in_bounds(self, family, dims):
        spec = SyntheticMotionSpec(joints=5, frames=128, family=family,
                                   dims=dims, width=64, height=48, depth=32,
                                   noise=0.5, seed=3)
        kp = tr.synth_motion(spec)
        assert kp.coords.shape == (128, 5, dims)
        hi = [63, 47] + ([31] if dims == 3 else [])
        for d, top in enumerate(hi):
            assert kp.coords[..., d].min() >= 0
            assert kp.coords[..., d].max() <= top

    def test_deterministic(self):
        spec = SyntheticMotionSpec(seed=7)
        a = tr.synth_motion(spec)
        b = tr.synth_motion(spec)
        assert np.array_equal(a.coords, b.coords)

    def test_seed_varies_output(self):
        a = tr.synth_motion(SyntheticMotionSpec(seed=1))
        b = tr.synth_motion(SyntheticMotionSpec(seed=2))
        assert not np.array_equal(a.coords, b.coords)

    def test_motion_is_smooth(self):
        kp = tr.synth_motion(SyntheticMotionSpec(frames=256, seed=0))
        step = np.abs(np.diff(kp.coords, axis=0))
        assert step.max() < 0.2 * 128  # no teleporting between frames

    def test_actually_moves(self):
        kp = tr.synth_motion(SyntheticMotionSpec(seed=0))
        assert kp.coords.std(axis=0).max() > 1.0

    def test_bad_family(self):
        with pytest.raises(ArgumentError):
            SyntheticMotionSpec(family="jazz-hands")


class TestPrepareWindows:
    def test_array_passthrough(self):
        cfg = tiny_config()
        wins = tr.prepare_windows(cfg, tiny_windows(cfg, n=2))
        assert len(wins) == 2
        t, h, w = cfg.input_extents
        assert wins[0].shape == (cfg.in_channels, t, h, w)

    def test_keypoints_rendered(self):
        cfg = tiny_config()
        spec = SyntheticMotionSpec(joints=cfg.in_channels, frames=8,
                                   width=16, height=16, seed=0)
        wins = tr.prepare_windows(cfg, [tr.synth_motion(spec)])
        assert wins[0].shape == (2, 8, 16, 16)
        # continuous coordinates rarely hit a pixel center exactly
        assert wins[0].max() > 0.9

    def test_rendered_array_same_bytes(self):
        # callers may render ahead of time and hand over the arrays
        cfg = tiny_config()
        t, h, w = cfg.input_extents
        kp = tr.synth_motion(SyntheticMotionSpec(joints=cfg.in_channels, frames=t,
                                                 width=w, height=h, seed=1))
        got = tr.prepare_windows(cfg, [hm.render2d(kp, h, w, cfg.sigma)])
        assert got[0].tobytes() == tr.prepare_windows(cfg, [kp])[0].tobytes()

    def test_rendered_triplane_array_same_bytes(self):
        cfg = tiny_config(mode="triplane", in_channels=6)
        t, h, w = cfg.input_extents
        kp = tr.synth_motion(SyntheticMotionSpec(joints=2, frames=t, dims=3, width=w,
                                                 height=h, depth=h, seed=1))
        vals = hm.project_triplane(hm.render3d(kp, h, h, w, cfg.sigma))
        got = tr.prepare_windows(cfg, [vals])
        assert got[0].tobytes() == tr.prepare_windows(cfg, [kp])[0].tobytes()

    def test_shape_mismatch(self):
        cfg = tiny_config()
        with pytest.raises(ArgumentError):
            tr.prepare_windows(cfg, [np.zeros((8, 3, 16, 16), dtype=np.float32)])


class TestTrainerConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", 2.0), ("warmup_steps", -1), ("lr", "1e-3"),
        ("beta1", 1.0), ("eps", float("nan")), ("checkpoint_every", True),
    ])
    def test_bad_field_value(self, field, value):
        with pytest.raises(ConfigError):
            TrainerConfig(**{field: value})


class TestUpdateGuard:
    """Each update takes the global gradient norm once: a non-finite norm
    aborts before anything moves, and a norm above ``grad_clip`` scales the
    gradients ``adamw_step`` receives."""

    @staticmethod
    def book_and_params(state):
        return {n: p.data.copy() for n, p in state.params.items()} | {
            "codebook.entries": state.codebook.entries.data.copy(),
            "codebook.usage": state.codebook.usage.copy()}

    # (player, its parameter to poison, which backward of step 1 makes its
    # gradient, the lambda_adv that runs that player)
    PLANTS = {"generator": ("enc.stem.w", 1, 0.0),
              "discriminator": ("disc.out.w", 2, 0.1)}

    @pytest.mark.parametrize("clip", [0.0, 1.0])
    @pytest.mark.parametrize("player", sorted(PLANTS))
    def test_nonfinite_gradient_aborts_before_the_update(self, tmp_path, monkeypatch,
                                                         player, clip):
        # A NaN planted in one gradient after backward leaves the loss
        # finite; ckpt_abort must hold the state from before that update.
        name, call, lambda_adv = self.PLANTS[player]
        cfg = tiny_config(lambda_adv=lambda_adv)
        state = mdl.build(cfg, seed=0)
        calls, before = [], {}
        backward = tc.backward

        def poisoning_backward(loss):
            backward(loss)
            calls.append(loss)
            if len(calls) == call:
                before.update(self.book_and_params(state))
                grad = state.params[name].grad.copy()
                grad.flat[0] = np.nan
                state.params[name].grad = grad

        monkeypatch.setattr(tc, "backward", poisoning_backward)
        with pytest.raises(TrainingError):
            tr.train(cfg, tiny_windows(cfg), steps=1, seed=0, state=state, out_dir=tmp_path,
                     tcfg=fast_tcfg(warmup_steps=0, grad_clip=clip))
        assert len(calls) == call
        saved, extra = mdl.load_checkpoint(tmp_path / "ckpt_abort.mck")
        after = self.book_and_params(saved)
        assert after.keys() == before.keys()
        for k, arr in before.items():
            assert np.array_equal(after[k], arr), k
        assert extra["opt_g.t"][0] == call - 1
        if lambda_adv:
            assert extra["opt_d.t"][0] == 0

    @staticmethod
    def recorded_steps(monkeypatch, clip):
        """Train 2 steps; per update, the gradients backward left on the
        generator's parameters and those ``adamw_step`` received."""
        produced, received = [], []
        backward, adamw_step = tc.backward, tr.adamw_step
        cfg = tiny_config()
        state = mdl.build(cfg, seed=0)
        params = state.params | {"codebook.entries": state.codebook.entries}

        def recording_backward(loss):
            backward(loss)
            produced.append({n: p.grad for n, p in params.items() if p.grad is not None})

        def recording_adamw(params, grads, opt, tcfg):
            received.append(dict(grads))
            adamw_step(params, grads, opt, tcfg)

        monkeypatch.setattr(tc, "backward", recording_backward)
        monkeypatch.setattr(tr, "adamw_step", recording_adamw)
        tr.train(cfg, tiny_windows(cfg), steps=2, seed=0, state=state,
                 tcfg=fast_tcfg(grad_clip=clip))
        assert len(produced) == len(received) == 2
        return produced, received

    def test_norm_above_clip_scaled_to_it(self, monkeypatch):
        produced, received = self.recorded_steps(monkeypatch, 1e-3)
        for made, got in zip(produced, received):
            assert got.keys() == made.keys()
            norm = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in made.values()))
            assert norm > 1e-3
            clipped = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in got.values()))
            assert clipped == pytest.approx(1e-3, rel=1e-6)

    @pytest.mark.parametrize("clip", [1e6, 0.0])
    def test_norm_within_clip_or_clip_off_passes_backward_arrays(self, monkeypatch, clip):
        produced, received = self.recorded_steps(monkeypatch, clip)
        for made, got in zip(produced, received):
            assert got.keys() == made.keys()
            assert all(got[n] is g for n, g in made.items())


class TestTrainLoop:
    def test_loss_decreases_and_logs(self):
        cfg = tiny_config()
        res = tr.train(cfg, tiny_windows(cfg), steps=8, seed=0, tcfg=fast_tcfg())
        assert res.state.step == 8
        recs = [json.loads(line) for line in res.log_lines]
        assert [r["step"] for r in recs] == list(range(1, 9))
        assert recs[-1]["l1"] < recs[0]["l1"]
        assert all(np.isfinite(r["total"]) for r in recs)

    def test_same_seed_identical_logs(self):
        cfg = tiny_config()
        a = tr.train(cfg, tiny_windows(cfg), steps=4, seed=5, tcfg=fast_tcfg())
        b = tr.train(cfg, tiny_windows(cfg), steps=4, seed=5, tcfg=fast_tcfg())
        assert a.log_lines == b.log_lines
        for k in a.state.params:
            assert np.array_equal(a.state.params[k].data, b.state.params[k].data)

    def test_warmup_freezes_discriminator(self):
        cfg = tiny_config(lambda_adv=0.1)
        state = mdl.build(cfg, seed=0)
        before = {k: v.data.copy() for k, v in state.params.items()
                  if k.startswith("disc.")}
        res = tr.train(cfg, tiny_windows(cfg), steps=3, seed=0,
                       tcfg=fast_tcfg(warmup_steps=10), state=state)
        for k, v in before.items():
            assert np.array_equal(res.state.params[k].data, v)
        recs = [json.loads(line) for line in res.log_lines]
        assert all(r["g"] == 0.0 and r["d"] == 0.0 for r in recs)

    def test_adversarial_updates_after_warmup(self):
        cfg = tiny_config(lambda_adv=0.1)
        state = mdl.build(cfg, seed=0)
        before = {k: v.data.copy() for k, v in state.params.items()
                  if k.startswith("disc.")}
        res = tr.train(cfg, tiny_windows(cfg), steps=3, seed=0,
                       tcfg=fast_tcfg(warmup_steps=1), state=state)
        changed = any(not np.array_equal(res.state.params[k].data, v)
                      for k, v in before.items())
        assert changed
        recs = [json.loads(line) for line in res.log_lines]
        assert recs[0]["d"] == 0.0 and recs[-1]["d"] != 0.0

    def test_resume_is_bit_exact(self, tmp_path):
        cfg = tiny_config(lambda_adv=0.1)
        tcfg = fast_tcfg(warmup_steps=2, checkpoint_every=3)
        data = tiny_windows(cfg)

        full = tr.train(cfg, data, steps=6, seed=9, tcfg=tcfg,
                        out_dir=tmp_path / "full")
        tr.train(cfg, data, steps=3, seed=9, tcfg=tcfg, out_dir=tmp_path / "half")
        state, extra = mdl.load_checkpoint(tmp_path / "half" / "ckpt_final.mck")
        resumed = tr.train(cfg, data, steps=6, seed=9, tcfg=tcfg,
                           state=state, opt_buffers=extra)

        for k in full.state.params:
            assert np.array_equal(full.state.params[k].data,
                                  resumed.state.params[k].data), k
        assert np.array_equal(full.state.codebook.entries.data,
                              resumed.state.codebook.entries.data)
        assert full.log_lines[3:] == resumed.log_lines

    def test_out_dir_holds_the_loss_log(self, tmp_path):
        # train writes out_dir/loss_log.jsonl itself; a resume into the same
        # out_dir from a checkpoint before the run stopped leaves the
        # uninterrupted run's log.
        cfg = tiny_config(lambda_adv=0.1)
        tcfg = fast_tcfg(warmup_steps=2, checkpoint_every=2)
        data = tiny_windows(cfg)
        full = tr.train(cfg, data, steps=5, seed=9, tcfg=tcfg, out_dir=tmp_path / "full")
        whole = (tmp_path / "full" / "loss_log.jsonl").read_bytes()
        assert whole == "".join(line + "\n" for line in full.log_lines).encode("utf-8")
        cut = tmp_path / "cut"
        tr.train(cfg, data, steps=3, seed=9, tcfg=tcfg, out_dir=cut)
        state, extra = mdl.load_checkpoint(cut / "ckpt_0000002.mck")
        tr.train(cfg, data, steps=5, seed=9, tcfg=tcfg, state=state, opt_buffers=extra,
                 out_dir=cut)
        assert (cut / "loss_log.jsonl").read_bytes() == whole

    def test_dead_entry_reseed(self):
        cfg = tiny_config()
        data = tiny_windows(cfg)
        plain = tr.train(cfg, data, steps=2, seed=4, tcfg=fast_tcfg())
        runs = [tr.train(cfg, data, steps=2, seed=4,
                         tcfg=fast_tcfg(reinit_dead_every=2)) for _ in range(2)]
        # Up to the reseed at the end of step 2 both settings train alike, so
        # the entries unused by then are the ones the reseed must replace.
        dead = plain.state.codebook.usage == 0
        assert 0 < dead.sum() < cfg.vocab
        before = plain.state.codebook.entries.data
        after = runs[0].state.codebook.entries.data
        assert np.all(np.any(after[dead] != before[dead], axis=1))
        assert np.array_equal(after[~dead], before[~dead])
        assert np.all(np.abs(after[dead]) <= 1.0 / cfg.vocab)
        assert not runs[0].state.codebook.usage.any()
        assert runs[0].log_lines == plain.log_lines == runs[1].log_lines
        assert np.array_equal(after, runs[1].state.codebook.entries.data)
        for k in plain.state.params:
            assert np.array_equal(runs[0].state.params[k].data,
                                  runs[1].state.params[k].data)

    def test_nan_parameter_aborts_with_checkpoint(self, tmp_path):
        cfg = tiny_config()
        state = mdl.build(cfg, seed=0)
        state.params["enc.stem.w"].data[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingError):
            tr.train(cfg, tiny_windows(cfg), steps=2, seed=0,
                     tcfg=fast_tcfg(), state=state, out_dir=tmp_path)
        assert (tmp_path / "ckpt_abort.mck").exists()

    def test_empty_data_rejected(self):
        with pytest.raises(ArgumentError):
            tr.train(tiny_config(), [], steps=1, seed=0)

    def test_bad_window_rejected_before_any_output(self, tmp_path):
        cfg = tiny_config()
        t, h, w = cfg.input_extents
        bad = np.zeros((t, cfg.in_channels, h, w + 1), dtype=np.float32)
        data = tiny_windows(cfg, n=3) + [bad] + tiny_windows(cfg, n=2, seed=1)
        log = io.StringIO()
        with pytest.raises(ArgumentError):
            tr.train(cfg, data, steps=3, seed=0, tcfg=fast_tcfg(checkpoint_every=1),
                     out_dir=tmp_path, log_stream=log)
        assert log.getvalue() == ""
        assert not list(tmp_path.iterdir())


class TestTrainMemory:
    def test_step_gradients_dead_before_next_forward(self, monkeypatch):
        # Weak references to the gradients each adamw_step receives; none may
        # be alive when the next step's encoder forward starts.
        refs, seen = [], []
        adamw_step, encoder_forward = tr.adamw_step, mdl.encoder_forward

        def spy_adamw(params, grads, opt, tcfg):
            refs.extend(weakref.ref(g) for g in grads.values())
            adamw_step(params, grads, opt, tcfg)

        def spy_encoder(state, x):
            seen.append((len(refs), sum(r() is not None for r in refs)))
            refs.clear()
            return encoder_forward(state, x)

        monkeypatch.setattr(tr, "adamw_step", spy_adamw)
        monkeypatch.setattr(mdl, "encoder_forward", spy_encoder)
        cfg = tiny_config(lambda_adv=0.1)
        tr.train(cfg, tiny_windows(cfg), steps=3, seed=0, tcfg=fast_tcfg(warmup_steps=0))
        assert seen[0] == (0, 0)
        # steps 2 and 3 follow a generator and a discriminator update
        assert [alive for _, alive in seen] == [0, 0, 0]
        assert all(taken > 0 for taken, _ in seen[1:])

    def test_peak_does_not_grow_with_dataset(self):
        # Training holds the drawn batch, not the dataset: 32 windows may
        # raise the peak of 2 steps over 4 windows' by at most two windows.
        cfg = tiny_config()

        def peak(n):
            data = tiny_windows(cfg, n=n)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tr.train(cfg, data, steps=2, seed=0, tcfg=fast_tcfg())
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        peak(4)  # lazy set-up outside the comparison
        window = tiny_windows(cfg, n=1)[0].nbytes
        assert peak(32) - peak(4) <= 2 * window


class TestLossLog:
    """The lines of a real run's loss log."""

    @pytest.fixture(scope="class")
    def lines(self):
        cfg = tiny_config(lambda_adv=0.1, alpha_perceptual=0.5, beta_l1=2.0)
        res = tr.train(cfg, tiny_windows(cfg), steps=4, seed=2,
                       tcfg=fast_tcfg(warmup_steps=2))
        return res.log_lines

    def test_log_line_schema(self, lines):
        for step, line in enumerate(lines, 1):
            rec = json.loads(line)
            assert list(rec) == ["step", "l1", "perc", "vq", "g", "d", "total"]
            assert rec["step"] == step
            assert line == json.dumps(rec, separators=(",", ":"))

    def test_total_is_weighted_sum_of_logged_terms(self, lines):
        # total_generator_loss's order in float32: ((alpha*perc + beta*l1) + vq) + lam*g;
        # before warmup g is 0.0, so the last term adds nothing.
        f = np.float32
        recs = [json.loads(line) for line in lines]
        assert [r["g"] != 0.0 for r in recs] == [False, False, True, True]
        for r in recs:
            total = f(r["perc"]) * f(0.5) + f(r["l1"]) * f(2.0) + f(r["vq"]) + f(r["g"]) * f(0.1)
            assert float(total) == r["total"], r
