"""End-to-end acceptance gate.

One test per shipped criterion, numbered 1-8; each prints a single
``CRITERION n: PASS`` line on success (run with ``-v -s`` to see them).
The training-based criteria share one desk-scale smoke fixture: an F8 model
on 16x32x32 inputs with a 128-entry codebook, trained 200 steps on 8
synthetic motion windows.
"""

import time

import numpy as np
import pytest

from motok import heatmap as hm
from motok import losses as ls
from motok import model as mdl
from motok import quantizer as qz
from motok import tensorcore as tc
from motok import trainer as tr
from motok.model import ModelConfig
from motok.quantizer import Codebook, TokenGrid
from motok.tensorcore import Tape, Tensor, backward
from motok.trainer import SyntheticMotionSpec, TrainerConfig

from helpers import check_grads, finite_diff_grads
from test_heatmap import gaussian2d_oracle
from test_metrics import l1_oracle, psnr_oracle, ssim_oracle, tstd_oracle
from test_quantizer import brute_force_nearest

GRAD_TOL = 1e-4
SEEDS_PER_OP = 20

SMOKE_SEED = 11
SMOKE_STEPS = 200


def _report(n, text):
    print(f"\nCRITERION {n}: PASS — {text}", flush=True)


def _away_from_kinks(arr, margin=0.05):
    """Shift entries off non-smooth points so finite differences are valid."""
    out = arr.copy()
    small = np.abs(out) < margin
    out[small] += margin * np.where(out[small] >= 0, 1.0, -1.0)
    return out


def smoke_config(**kw):
    base = dict(compression="F8", vocab=128, embed_dim=16, base_channels=8,
                in_channels=4, input_extents=(16, 32, 32), lambda_adv=0.0)
    base.update(kw)
    return ModelConfig(**base)


def smoke_tcfg(**kw):
    base = dict(lr=1e-3, warmup_steps=20)
    base.update(kw)
    return TrainerConfig(**base)


def smoke_windows():
    """8 training windows from one synthetic 4-joint motion sequence."""
    spec = SyntheticMotionSpec(joints=4, frames=128, family="random-smooth",
                               seed=SMOKE_SEED, width=32, height=32)
    return hm.window(tr.synth_motion(spec), 16, 16)


@pytest.fixture(scope="module")
def smoke():
    """Two identically seeded 200-step runs plus their wall-clock time."""
    data = smoke_windows()
    start = time.monotonic()
    first = tr.train(smoke_config(), data, steps=SMOKE_STEPS, seed=SMOKE_SEED,
                     tcfg=smoke_tcfg())
    elapsed = time.monotonic() - start
    second = tr.train(smoke_config(), data, steps=SMOKE_STEPS, seed=SMOKE_SEED,
                      tcfg=smoke_tcfg())
    return {"first": first, "second": second, "elapsed": elapsed, "data": data}


class TestCriterion1:
    def test_criterion_1_gradient_correctness(self):
        start = time.monotonic()
        rngs = [np.random.default_rng(s) for s in range(SEEDS_PER_OP)]
        worst = 0.0

        def run(build, make_arrays):
            nonlocal worst
            for rng in rngs:
                err = check_grads(build, make_arrays(rng))
                worst = max(worst, err)
                assert err < GRAD_TOL, f"{build} rel err {err}"

        pair = lambda rng, shape=(3, 4): [rng.normal(size=shape),
                                          rng.normal(size=shape)]
        single = lambda rng, shape=(3, 4): [rng.normal(size=shape)]
        safe = lambda rng, shape=(3, 4): [_away_from_kinks(rng.normal(size=shape))]

        run(lambda a, b: tc.tsum(tc.mul(tc.add(a, b), b)), pair)
        run(lambda a, b: tc.tsum(tc.mul(tc.sub(a, b), tc.sub(a, b))), pair)
        run(lambda a: tc.tsum(tc.mul(a, 0.7)), single)
        run(lambda a: tc.tsum(tc.relu(a)), safe)
        run(lambda a: tc.tsum(tc.leaky_relu(a)), safe)
        run(lambda a: tc.tsum(tc.sigmoid(a)), single)
        run(lambda a, g, o: tc.tsum(tc.group_norm_swish(a, 2, g, o)),
            lambda rng: [rng.normal(size=(3, 4)), rng.uniform(0.5, 1.5, size=4),
                         rng.normal(size=4) * 0.2])
        run(lambda a: tc.tsum(tc.tabs(a)), safe)
        run(lambda a: tc.tsum(tc.sqrt(a)),
            lambda rng: [rng.uniform(0.5, 2.0, size=(3, 4))])
        run(lambda a: tc.tmean(tc.mul(a, a)), single)
        run(lambda a: tc.tsum(tc.mul(tc.row_mean(a), tc.row_mean(a))), single)
        run(lambda a: tc.tsum(tc.mul(tc.reshape(a, (12,)), tc.reshape(a, (12,)))),
            single)
        run(lambda a: tc.tsum(tc.mul(tc.moveaxis(a, 0, 1), 1.5)), single)
        run(lambda a: tc.tsum(tc.mul(tc.take_rows(a, np.array([0, 2, 2])),
                                     np.pi)), single)
        run(lambda x, w, b: tc.tsum(tc.mul(tc.upsample_conv3d(x, w, b),
                                           tc.upsample_conv3d(x, w, b))),
            lambda rng: [rng.normal(size=(1, 2, 2, 2, 2)),
                         rng.normal(size=(3, 2, 3, 3, 3)) * 0.4,
                         rng.normal(size=3)])

        def conv_build(x, w, b):
            return tc.tsum(tc.mul(tc.conv3d(x, w, b, stride=1, padding=1), 0.3))

        run(conv_build, lambda rng: [rng.normal(size=(1, 2, 3, 4, 4)),
                                     rng.normal(size=(2, 2, 3, 3, 3)) * 0.4,
                                     rng.normal(size=2)])

        def conv_strided(x, w, b):
            return tc.tsum(tc.conv3d(x, w, b, stride=2, padding=1))

        run(conv_strided, lambda rng: [rng.normal(size=(1, 2, 4, 4, 4)),
                                       rng.normal(size=(3, 2, 3, 3, 3)) * 0.4,
                                       rng.normal(size=3)])

        def gn_build(x, g, o):
            return tc.tsum(tc.mul(tc.group_norm_swish(x, 2, g, o),
                                  tc.group_norm_swish(x, 2, g, o)))

        run(gn_build, lambda rng: [rng.normal(size=(2, 4, 2, 3, 3)),
                                   rng.uniform(0.5, 1.5, size=4),
                                   rng.normal(size=4) * 0.2])

        # losses
        def l1_arrays(rng):
            b = rng.normal(size=(2, 5))
            return [b + _away_from_kinks(rng.normal(size=(2, 5))), b]

        run(lambda a, b: ls.l1_loss(a, b), l1_arrays)
        psi = ls.FeatureExtractor(2, seed=0)
        run(lambda a, b: ls.perceptual_loss(a, b, psi),
            lambda rng: [rng.normal(size=(1, 2, 4, 4, 4)),
                         rng.normal(size=(1, 2, 4, 4, 4))])
        run(lambda dr, df: ls.hinge_d_loss(dr, df),
            lambda rng: [_away_from_kinks(rng.normal(size=4) - 1.0) + 1.0,
                         _away_from_kinks(rng.normal(size=4) + 1.0) - 1.0])
        run(lambda d: ls.g_loss(d), lambda rng: [rng.normal(size=4)])
        run(lambda p, l, v, a: ls.total_generator_loss(p, l, v, a,
                                                       alpha=0.6, beta=1.2,
                                                       lam=0.1),
            lambda rng: [tc_scalar(rng) for _ in range(4)])

        # straight-through path: the gradient that reaches z_e must equal the
        # finite-difference gradient of the downstream function evaluated at
        # the quantized values (identity pass-through semantics)
        for rng in rngs:
            entries = rng.normal(size=(8, 3))
            book = Codebook(Tensor(entries, requires_grad=True,
                                   dtype=np.float64))
            zv = rng.normal(size=(1, 3, 2, 1, 1))
            z = Tensor(zv, requires_grad=True, dtype=np.float64)
            with Tape():
                res = qz.quantize(z, book)
                backward(tc.tsum(tc.mul(tc.sigmoid(res.z_q), res.z_q)))
            analytic = z.grad.copy()

            zq0 = res.z_q.data.copy()

            def downstream():
                u = Tensor(zq0, dtype=np.float64)
                return float(tc.tsum(tc.mul(tc.sigmoid(u), u)).numpy())

            numeric = finite_diff_grads(downstream, [zq0])[0]
            err = np.max(np.abs(analytic - numeric) / (1.0 + np.abs(numeric)))
            worst = max(worst, float(err))
            assert err < GRAD_TOL

        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient sweep took {elapsed:.1f}s"
        _report(1, f"all differentiable ops, {SEEDS_PER_OP} seeds each, "
                   f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def tc_scalar(rng):
    return np.array(rng.normal())


class TestCriterion2:
    def test_criterion_2_quantizer_oracle(self):
        rng = np.random.default_rng(2)
        d = 8
        total = 0
        for vocab in (128, 256, 512, 1024):
            entries = rng.normal(size=(vocab, d))
            book = Codebook(Tensor(entries, requires_grad=True))
            z = rng.normal(size=(250, d))
            latent = Tensor(np.moveaxis(z, 1, 0)[None, :, :, None, None])
            res = qz.quantize(latent, book)
            want = brute_force_nearest(z, entries)
            assert np.array_equal(res.grids[0].indices.ravel(), want), vocab
            total += len(z)
        assert total == 1000

        # stop-gradient routing: commitment term moves only z_e, the codebook
        # term only the selected entries, each with derivative +/- 2(z-e)/P
        z = Tensor(rng.normal(size=(6, 4)), requires_grad=True, dtype=np.float64)
        e = Tensor(rng.normal(size=(6, 4)), requires_grad=True, dtype=np.float64)
        with Tape():
            backward(qz.vq_loss(z, e))
        diff = z.data - e.data
        assert np.allclose(z.grad, 2.0 * diff / 6, atol=1e-12)
        assert np.allclose(e.grad, -2.0 * diff / 6, atol=1e-12)
        _report(2, "1000 nearest-entry selections match exhaustive search; "
                   "stop-gradient routing exact")


class TestCriterion3:
    def test_criterion_3_compression_arithmetic(self):
        cases = {"F8": ((8, 16, 16), 512),
                 "F16": ((4, 8, 8), 4096),
                 "F32": ((2, 4, 4), 32768)}
        for comp, (lattice, factor) in cases.items():
            cfg = ModelConfig(compression=comp, vocab=512, embed_dim=8,
                              base_channels=8, in_channels=1,
                              input_extents=(64, 128, 128))
            assert cfg.latent_extents == lattice
            assert cfg.compression_factor == factor
            assert np.prod(cfg.input_extents) // np.prod(cfg.latent_extents) == factor
        _report(3, "F8/F16/F32 on 64x128x128 -> 8x16x16 / 4x8x8 / 2x4x4, "
                   "512x / 4096x / 32768x")


class TestCriterion4:
    def test_criterion_4_metric_oracles(self):
        from motok import metrics as mt
        rng = np.random.default_rng(4)
        for i in range(100):
            x = rng.uniform(size=(2, 8, 8))
            y = rng.uniform(size=(2, 8, 8))
            assert abs(mt.ssim(x, y) - ssim_oracle(x, y)) < 1e-9, i
            assert abs(mt.psnr(x, y) - psnr_oracle(x, y)) < 1e-9, i
            assert abs(mt.l1(x, y) - l1_oracle(x, y)) < 1e-9, i
            v = rng.uniform(size=(3, 2, 6, 6))
            assert abs(mt.tstd(v) - tstd_oracle(v)) < 1e-9, i

        x = rng.uniform(size=(2, 10, 10))
        assert mt.ssim(x, x) == pytest.approx(1.0, abs=1e-12)
        static = np.stack([rng.uniform(size=(1, 6, 6))[0]] * 4)[:, None]
        assert mt.tstd(static) == pytest.approx(0.0, abs=1e-12)
        noise = rng.normal(size=x.shape)
        vals = [mt.psnr(x, x + eps * noise) for eps in (1e-4, 1e-3, 1e-2, 1e-1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        _report(4, "SSIM/PSNR/L1/T-Std within 1e-9 of scalar-loop references "
                   "on 100 random pairs")


class TestCriterion5:
    def test_criterion_5_training_smoke(self, smoke):
        import json
        recs = [json.loads(line) for line in smoke["first"].log_lines]
        l1_first, l1_last = recs[0]["l1"], recs[-1]["l1"]
        assert all(np.isfinite(list(r.values())).all() for r in recs)
        assert l1_last <= 0.5 * l1_first, (l1_first, l1_last)
        assert smoke["elapsed"] < 600.0
        assert smoke["first"].log_lines == smoke["second"].log_lines
        _report(5, f"200 steps in {smoke['elapsed']:.0f}s; L1 "
                   f"{l1_first:.4f} -> {l1_last:.4f} "
                   f"({100 * (1 - l1_last / l1_first):.1f}% drop); "
                   "repeat run bit-identical")


class TestCriterion6:
    def test_criterion_6_adversarial_ablation(self, smoke):
        cfg = smoke_config(lambda_adv=0.0)
        data = smoke["data"]
        with_disc = mdl.build(cfg, seed=SMOKE_SEED, include_discriminator=True)
        without = mdl.build(cfg, seed=SMOKE_SEED, include_discriminator=False)
        ra = tr.train(cfg, data, steps=8, seed=SMOKE_SEED, tcfg=smoke_tcfg(),
                      state=with_disc)
        rb = tr.train(cfg, data, steps=8, seed=SMOKE_SEED, tcfg=smoke_tcfg(),
                      state=without)
        assert ra.log_lines == rb.log_lines
        for name, p in rb.state.params.items():
            assert np.array_equal(p.data, ra.state.params[name].data), name
        assert np.array_equal(ra.state.codebook.entries.data,
                              rb.state.codebook.entries.data)

        adv_cfg = smoke_config(lambda_adv=0.05)
        res = tr.train(adv_cfg, data, steps=60, seed=SMOKE_SEED,
                       tcfg=smoke_tcfg(warmup_steps=20))
        state = res.state
        margins = []
        for win in tr.prepare_windows(adv_cfg, data)[:4]:
            x = win[None]
            real = mdl.discriminator_forward(state, Tensor(x))
            _, _, z_q = mdl.encode(state, x)
            recon = mdl.decoder_forward(state, z_q)
            fake = mdl.discriminator_forward(state, Tensor(recon.data))
            margins.append(float(real.numpy().mean() - fake.numpy().mean()))
        margin = float(np.mean(margins))
        assert margin > 0.0, margins
        _report(6, "lambda=0 trajectory bit-identical with discriminator "
                   f"deleted; lambda>0 real-vs-fake margin {margin:.3f} > 0")


class TestCriterion7:
    def test_criterion_7_round_trips(self, smoke, tmp_path):
        cfg = smoke_config()
        data = smoke["data"]
        tcfg = smoke_tcfg()

        # uninterrupted vs checkpoint-resumed training, bit for bit
        full = tr.train(cfg, data, steps=10, seed=SMOKE_SEED, tcfg=tcfg)
        tr.train(cfg, data, steps=5, seed=SMOKE_SEED, tcfg=tcfg,
                 out_dir=tmp_path / "half")
        state, extra = mdl.load_checkpoint(tmp_path / "half" / "ckpt_final.mck")
        resumed = tr.train(cfg, data, steps=10, seed=SMOKE_SEED, tcfg=tcfg,
                           state=state, opt_buffers=extra)
        for name in full.state.params:
            assert np.array_equal(full.state.params[name].data,
                                  resumed.state.params[name].data), name
        assert full.log_lines[5:] == resumed.log_lines

        # token-level idempotence: the output of tokenize -> detokenize ->
        # tokenize is a fixed point of detokenize -> tokenize. Uses a compact
        # fixture trained long enough for the codebook cells to have real
        # margins (a 200-step run leaves entries too clustered for
        # token-level, as opposed to pixel-level, stability).
        fp_cfg = smoke_config(vocab=8, embed_dim=8, in_channels=2,
                              input_extents=(8, 16, 16))
        spec = SyntheticMotionSpec(joints=2, frames=32, family="random-smooth",
                                   seed=SMOKE_SEED, width=16, height=16)
        fp_data = hm.window(tr.synth_motion(spec), 8, 8)
        trained = tr.train(fp_cfg, fp_data, steps=600, seed=SMOKE_SEED,
                           tcfg=smoke_tcfg()).state
        fixed = 0
        for win in tr.prepare_windows(fp_cfg, fp_data):
            _, grid1, _ = mdl.encode(trained, win[None])
            chain_out = mdl.encode(trained, np.moveaxis(mdl.decode(trained, grid1), 0, 1)[None])[1]
            again = mdl.encode(trained, np.moveaxis(mdl.decode(trained, chain_out), 0, 1)[None])[1]
            assert np.array_equal(chain_out.indices, again.indices)
            fixed += 1

        # binary formats: write -> read equality
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
        tc.save_tensor(tmp_path / "a.mht", arr)
        assert np.array_equal(tc.load_tensor(tmp_path / "a.mht"), arr)

        grid = TokenGrid((2, 4, 4), rng.integers(0, 128, size=(2, 4, 4)), 128)
        qz.save_tokens(tmp_path / "a.mtk", grid)
        back = qz.load_tokens(tmp_path / "a.mtk")
        assert np.array_equal(back.indices, grid.indices)
        assert back.vocab == grid.vocab

        mdl.save_checkpoint(tmp_path / "a.mck", trained)
        loaded, _ = mdl.load_checkpoint(tmp_path / "a.mck")
        for name in trained.params:
            assert np.array_equal(loaded.params[name].data,
                                  trained.params[name].data)
        _report(7, f"resume bit-exact; tokenize/detokenize fixed point on "
                   f"{fixed} windows; MHT1/MTK1/MCK1 round-trip")


class TestCriterion8:
    def test_criterion_8_heatmap_fidelity(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            coords = rng.uniform(0, 15, size=(2, 3, 2))
            kp = hm.KeypointSequence(coords)
            vol = hm.render2d(kp, 16, 16, sigma=1.9)
            want = gaussian2d_oracle(kp, 16, 16, 1.9)
            assert np.max(np.abs(vol - want)) < 1e-12

        for _ in range(5):
            vals = rng.uniform(size=(2, 2, 5, 5, 5))
            tri = hm.project_triplane(vals)
            f, k, dd, hh, ww = vals.shape
            for fi in range(f):
                for ki in range(k):
                    for a in range(hh):
                        for b in range(ww):
                            m = max(vals[fi, ki, dz, a, b] for dz in range(dd))
                            assert tri[fi, ki, a, b] == m
                    for dz in range(dd):
                        for a in range(hh):
                            m = max(vals[fi, ki, dz, a, wz] for wz in range(ww))
                            assert tri[fi, k + ki, dz, a] == m
                        for b in range(ww):
                            m = max(vals[fi, ki, dz, a2, b] for a2 in range(hh))
                            assert tri[fi, 2 * k + ki, dz, b] == m
        _report(8, "Gaussian rendering matches per-pixel formula to 1e-12; "
                   "tri-plane equals exhaustive axis-max")
