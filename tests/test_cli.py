import copy
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motok import cli
from motok import heatmap as hm
from motok import metrics as mx
from motok import model as mdl
from motok import quantizer as qz
from motok import tensorcore as tc
from motok import trainer as tr

from helpers import FUZZ, corrupt, corruptions, rewrite_checkpoint_header


TINY_CONFIG = {
    "schema": 1,
    "model": {
        "compression": "F8",
        "vocab": 16,
        "embed_dim": 8,
        "base_channels": 8,
        "in_channels": 2,
        "input_extents": [8, 16, 16],
        "lambda_adv": 0.0,
    },
    "trainer": {"lr": 1e-3, "warmup_steps": 2},
    "window_stride": 8,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth -> train pipeline shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    kp_path = root / "motion.jsonl"
    assert cli.main(["synth", "--joints", "2", "--frames", "24",
                     "--width", "16", "--height", "16",
                     "--seed", "3", "--out", str(kp_path)]) == 0
    run_dir = root / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--data", str(kp_path),
                     "--steps", "3", "--seed", "3", "--out", str(run_dir)]) == 0
    return {"root": root, "config": cfg_path, "keypoints": kp_path,
            "ckpt": run_dir / "ckpt_final.mck", "run": run_dir}


class TestSynth:
    def test_output_and_manifest(self, workspace):
        kp = workspace["keypoints"]
        assert kp.exists()
        manifest = json.loads((kp.parent / "motion.jsonl.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == [str(kp)]
        assert "wall_clock_s" in manifest

    def test_seed_env_override(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        os.environ["MOTOK_SEED"] = "77"
        try:
            cli.main(["synth", "--joints", "1", "--frames", "4", "--seed", "1",
                      "--out", str(a)])
        finally:
            del os.environ["MOTOK_SEED"]
        cli.main(["synth", "--joints", "1", "--frames", "4", "--seed", "77",
                  "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_seed_env_not_integer_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOTOK_SEED", "abc")
        assert cli.main(["synth", "--joints", "1", "--frames", "4",
                         "--out", str(tmp_path / "a.jsonl")]) == 3

    def test_bad_family_exit_code(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--family", "nope", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("args", [
        ["--width", "-5"], ["--width", "0"], ["--height", "0"],
        ["--depth", "0", "--dims", "3"], ["--noise", "nan"], ["--noise", "inf"],
        ["--noise", "-1"],
    ], ids=lambda a: "".join(a).lstrip("-"))
    def test_bad_extent_or_noise_code(self, tmp_path, args):
        out = tmp_path / "x.jsonl"
        assert cli.main(["synth", "--joints", "1", "--frames", "4",
                         "--out", str(out)] + args) == 3
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, workspace):
        run = workspace["run"]
        assert workspace["ckpt"].exists()
        log = (run / "loss_log.jsonl").read_text().splitlines()
        assert len(log) == 3
        assert json.loads(log[0])["step"] == 1
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["steps"] == 3

    def test_checkpoint_loads(self, workspace):
        state, extra = mdl.load_checkpoint(workspace["ckpt"])
        assert state.step == 3
        assert any(k.startswith("opt_g.") for k in extra)

    def test_resume_continues(self, workspace, tmp_path):
        out = tmp_path / "resumed"
        code = cli.main(["train", "--config", str(workspace["config"]),
                         "--data", str(workspace["keypoints"]),
                         "--steps", "5", "--seed", "3",
                         "--resume", str(workspace["ckpt"]), "--out", str(out)])
        assert code == 0
        state, _ = mdl.load_checkpoint(out / "ckpt_final.mck")
        assert state.step == 5

    def test_resume_log_matches_uninterrupted(self, workspace, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, trainer=dict(TINY_CONFIG["trainer"],
                                                                  checkpoint_every=3))))

        def train(out, steps, *resume):
            assert cli.main(["train", "--config", str(cfg),
                             "--data", str(workspace["keypoints"]), "--steps", str(steps),
                             "--seed", "3", *resume, "--out", str(out)]) == 0

        train(tmp_path / "whole", 8)
        # Stopped after step 5, then resumed from the step-3 checkpoint.
        cut = tmp_path / "cut"
        train(cut, 5)
        train(cut, 8, "--resume", str(cut / "ckpt_0000003.mck"))
        whole = (tmp_path / "whole" / "loss_log.jsonl").read_bytes()
        assert [json.loads(line)["step"] for line in whole.splitlines()] == list(range(1, 9))
        assert (cut / "loss_log.jsonl").read_bytes() == whole

    # The CI walkthrough's config and keypoints, adversarial from step 2.
    WALKTHROUGH_ADV = {
        "schema": 1,
        "model": {"compression": "F8", "vocab": 128, "embed_dim": 16, "base_channels": 8,
                  "in_channels": 4, "input_extents": [16, 32, 32], "lambda_adv": 0.1},
        "trainer": {"lr": 0.001, "warmup_steps": 1},
        "window_stride": 16,
    }

    def test_training_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # A whole adversarial run, each in its own process, at 1 and 2 BLAS
        # threads: conv3d's GEMM splits must not round with the thread count.
        kp = tmp_path / "motion.jsonl"
        assert cli.main(["synth", "--joints", "4", "--frames", "256", "--width", "32",
                         "--height", "32", "--family", "walk-cycle", "--seed", "7",
                         "--out", str(kp)]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.WALKTHROUGH_ADV))
        src = str(Path(__file__).resolve().parent.parent / "src")
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                       MKL_NUM_THREADS=n, PYTHONPATH=src)
            env.pop("MOTOK_SEED", None)
            proc = subprocess.run([sys.executable, "-m", "motok.cli", "train", "--config",
                                   str(cfg), "--data", str(kp), "--steps", "4", "--seed", "7",
                                   "--out", str(tmp_path / n)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr[-2000:]
        for name in ("loss_log.jsonl", "ckpt_final.mck"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def train_every3(self, workspace, tmp_path, out, steps, *resume):
        """``train`` checkpointing every 3 steps on the workspace data -> exit code."""
        cfg = tmp_path / "every3.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, trainer=dict(TINY_CONFIG["trainer"],
                                                                  checkpoint_every=3))))
        return cli.main(["train", "--config", str(cfg), "--data", str(workspace["keypoints"]),
                         "--steps", str(steps), "--seed", "3", *resume, "--out", str(out)])

    def test_resume_malformed_log_code(self, workspace, tmp_path, capsys):
        # A 6-step run whose log's second line is garbled, resumed from its
        # step-3 checkpoint: exit 5 names the line, and nothing is written.
        run = tmp_path / "run"
        assert self.train_every3(workspace, tmp_path, run, 6) == 0
        log = run / "loss_log.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"step": 2, "l1":\n'
        log.write_bytes(b"".join(lines))
        garbled, final = log.read_bytes(), (run / "ckpt_final.mck").read_bytes()
        assert self.train_every3(workspace, tmp_path, run, 6,
                                 "--resume", str(run / "ckpt_0000003.mck")) == 5
        err = capsys.readouterr().err
        assert f"{log}:2: malformed loss log line" in err and "Traceback" not in err
        assert log.read_bytes() == garbled
        assert (run / "ckpt_final.mck").read_bytes() == final

    def test_resume_drops_cut_short_log_line(self, workspace, tmp_path):
        # A run killed while writing step 4's line, after its step-3
        # checkpoint: the resume drops the half line, and the log reads as
        # the uninterrupted run's.
        assert self.train_every3(workspace, tmp_path, tmp_path / "whole", 6) == 0
        cut = tmp_path / "cut"
        assert self.train_every3(workspace, tmp_path, cut, 4) == 0
        log = cut / "loss_log.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:3]) + lines[3][:len(lines[3]) // 2])
        assert self.train_every3(workspace, tmp_path, cut, 6,
                                 "--resume", str(cut / "ckpt_0000003.mck")) == 0
        assert log.read_bytes() == (tmp_path / "whole" / "loss_log.jsonl").read_bytes()

    def test_checkpoint_written_after_its_log_lines(self, workspace, tmp_path, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, trainer=dict(TINY_CONFIG["trainer"],
                                                                  checkpoint_every=1))))
        log = tmp_path / "run" / "loss_log.jsonl"
        save = mdl.save_checkpoint
        seen = []

        def spy(path, state, extra):
            seen.append((state.step, len(log.read_text().splitlines())))
            save(path, state, extra)

        monkeypatch.setattr(mdl, "save_checkpoint", spy)
        assert cli.main(["train", "--config", str(cfg), "--data", str(workspace["keypoints"]),
                         "--steps", "3", "--seed", "3", "--out", str(tmp_path / "run")]) == 0
        assert seen == [(1, 1), (2, 2), (3, 3), (3, 3)]

    def test_bad_config_schema(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        assert cli.main(["train", "--config", str(bad),
                         "--data", str(workspace["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3

    def test_unknown_config_field(self, workspace, tmp_path):
        raw = dict(TINY_CONFIG)
        raw["model"] = dict(raw["model"], wat=1)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(bad),
                         "--data", str(workspace["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3

    # Each edit turns TINY_CONFIG into one with a value of the wrong type or range.
    BAD_CONFIGS = {
        "top-level-array": lambda c: [c],
        "model-not-object": lambda c: {**c, "model": [1]},
        "window-stride-string": lambda c: {**c, "window_stride": "abc"},
        "two-input-extents": lambda c: {**c, "model": {**c["model"], "input_extents": [8, 16]}},
        "base-channels-string": lambda c: {**c, "model": {**c["model"], "base_channels": "4"}},
        "batch-size-zero": lambda c: {**c, "trainer": {**c["trainer"], "batch_size": 0}},
        "unknown-mode": lambda c: {**c, "model": {**c["model"], "mode": "3d"}},
    }

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_value_code(self, workspace, tmp_path, case):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.BAD_CONFIGS[case](TINY_CONFIG)))
        assert cli.main(["train", "--config", str(bad),
                         "--data", str(workspace["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3

    def test_config_not_utf8_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(json.dumps(TINY_CONFIG).encode("utf-8").replace(b"F8", b"F\xff"))
        assert cli.main(["train", "--config", str(bad),
                         "--data", str(workspace["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3

    def test_missing_data_io_code(self, workspace, tmp_path):
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--data", str(tmp_path / "nope.jsonl"),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 2

    def test_short_sequence_config_code(self, workspace, tmp_path):
        short = tmp_path / "short.jsonl"
        cli.main(["synth", "--joints", "2", "--frames", "4",
                  "--width", "16", "--height", "16", "--out", str(short)])
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--data", str(short), "--steps", "1",
                         "--out", str(tmp_path / "o")]) == 3

    def resume(self, workspace, tmp_path, ckpt, config=None, seed="3"):
        """``train --resume ckpt --steps 4`` on the workspace data -> exit code."""
        return cli.main(["train", "--config", str(config or workspace["config"]),
                         "--data", str(workspace["keypoints"]), "--steps", "4",
                         "--seed", seed, "--resume", str(ckpt), "--out", str(tmp_path / "o")])

    # The checkpoint was trained at input_extents [8,16,16], sigma 2,
    # lambda_adv 0 and seed 3; each case resumes it with one of them changed.
    RESUME_MISMATCH = {
        "input_extents": ({"input_extents": [16, 16, 16]}, "3"),
        "sigma": ({"sigma": 5.0}, "3"),
        "lambda_adv": ({"lambda_adv": 0.1}, "3"),
        "seed": ({}, "4"),
    }

    @pytest.mark.parametrize("case", sorted(RESUME_MISMATCH))
    def test_resume_other_config_or_seed_code(self, workspace, tmp_path, capsys, case):
        model, seed = self.RESUME_MISMATCH[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "model": {**TINY_CONFIG["model"], **model}}))
        assert self.resume(workspace, tmp_path, workspace["ckpt"], cfg, seed) == 3
        err = capsys.readouterr().err
        assert case in err and "Traceback" not in err
        assert not (tmp_path / "o" / "ckpt_final.mck").exists()

    # Header edits of the generator's optimizer buffers, and the buffer each names.
    BAD_OPT_BUFFERS = {
        "t-missing": (lambda h: {**h, "manifest": {
            k: v for k, v in h["manifest"].items() if k != "extra.opt_g.t"}}, "opt_g.t"),
        "t-two-values": (lambda h: h["manifest"]["extra.opt_g.t"].update(extents=[2]),
                         "opt_g.t"),
        "t-not-integer": (lambda h: h["manifest"]["extra.opt_g.t"].update(dtype="f64"),
                          "opt_g.t"),
        "moment-of-no-parameter": (lambda h: {**h, "manifest": {
            k.replace(".m.enc.stem.w", ".m.enc.nope.w"): v
            for k, v in h["manifest"].items()}}, "opt_g.m.enc.nope.w"),
        "moment-extents": (lambda h: h["manifest"]["extra.opt_g.v.enc.stem.w"].update(
            extents=[1]), "opt_g.v.enc.stem.w"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_OPT_BUFFERS))
    def test_resume_bad_optimizer_buffer_code(self, workspace, tmp_path, capsys, case):
        edit, name = self.BAD_OPT_BUFFERS[case]
        bad = tmp_path / "bad.mck"
        rewrite_checkpoint_header(workspace["ckpt"], bad, edit)
        assert self.resume(workspace, tmp_path, bad) == 5
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err

    def test_rejected_resume_keeps_log(self, workspace, tmp_path, capsys):
        # A 6-step run checkpointing every 3 steps, resumed into the same
        # directory from step 3 with sigma 5 (exit 3), then with a bad optimizer
        # buffer (exit 5): neither may cut the log back to step 3.
        cfg = tmp_path / "config.json"
        trainer = dict(TINY_CONFIG["trainer"], checkpoint_every=3)
        cfg.write_text(json.dumps(dict(TINY_CONFIG, trainer=trainer)))
        run = tmp_path / "run"

        def train(config, *resume):
            return cli.main(["train", "--config", str(config),
                             "--data", str(workspace["keypoints"]), "--steps", "6",
                             "--seed", "3", *resume, "--out", str(run)])

        assert train(cfg) == 0
        log = (run / "loss_log.jsonl").read_bytes()
        final = (run / "ckpt_final.mck").read_bytes()
        assert log.count(b"\n") == 6
        other = tmp_path / "sigma5.json"
        other.write_text(json.dumps(dict(TINY_CONFIG, trainer=trainer, model=dict(
            TINY_CONFIG["model"], sigma=5.0))))
        assert train(other, "--resume", str(run / "ckpt_0000003.mck")) == 3
        assert (run / "loss_log.jsonl").read_bytes() == log
        edit, _ = self.BAD_OPT_BUFFERS["moment-extents"]
        bad = tmp_path / "bad.mck"
        rewrite_checkpoint_header(run / "ckpt_0000003.mck", bad, edit)
        assert train(cfg, "--resume", str(bad)) == 5
        assert (run / "loss_log.jsonl").read_bytes() == log
        assert (run / "ckpt_final.mck").read_bytes() == final
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_steps_code(self, workspace, tmp_path, capsys):
        run = tmp_path / "run"
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--data", str(workspace["keypoints"]), "--steps", "-3",
                         "--seed", "3", "--out", str(run)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not list(run.glob("*.mck"))
        assert not (run / "loss_log.jsonl").exists()
        assert not run.exists()

    def test_resume_past_steps_code(self, workspace, tmp_path, capsys):
        # A 2-step run, resumed from its step-2 checkpoint with --steps 1:
        # that step is behind it, so nothing is trained or written.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(TINY_CONFIG, trainer=dict(TINY_CONFIG["trainer"],
                                                                  checkpoint_every=1))))
        run = tmp_path / "run"

        def train(steps, *resume):
            return cli.main(["train", "--config", str(cfg),
                             "--data", str(workspace["keypoints"]), "--steps", str(steps),
                             "--seed", "3", *resume, "--out", str(run)])

        assert train(2) == 0
        before = {p.name: p.read_bytes() for p in run.iterdir() if p.name != "manifest.json"}
        assert train(1, "--resume", str(run / "ckpt_0000002.mck")) == 3
        assert "Traceback" not in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in run.iterdir() if p.name != "manifest.json"}
        assert after == before

    @settings(FUZZ, max_examples=25)
    @given(data=st.data())
    def test_corrupt_checkpoint_resume_never_crashes(self, workspace, tmp_path, data):
        # A header edit may also give a valid checkpoint of another config or seed (exit 3).
        blob = workspace["ckpt"].read_bytes()
        head = 8 + int.from_bytes(blob[4:8], "little")
        bad = tmp_path / "bad.mck"
        bad.write_bytes(corrupt(blob, data.draw(corruptions(len(blob), head))))
        assert self.resume(workspace, tmp_path, bad) in (0, 3, 5)


class TestTokenizeDetokenize:
    def test_round_trip_fixed_point(self, workspace, tmp_path, capsys):
        tokens = tmp_path / "motion.mtk"
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]),
                         "--in", str(workspace["keypoints"]),
                         "--stride", "8", "--out", str(tokens)]) == 0
        out = capsys.readouterr().out
        assert "512x" in out
        # 24 frames / length 8 / stride 8 -> 3 windows
        produced = sorted(tmp_path.glob("motion_*.mtk"))
        assert len(produced) == 3

        volume = tmp_path / "recon.mht"
        assert cli.main(["detokenize", "--ckpt", str(workspace["ckpt"]),
                         "--tokens", str(produced[0]),
                         "--out", str(volume)]) == 0
        recon = tc.load_tensor(volume)
        assert recon.shape == (8, 2, 16, 16)

        # re-running tokenize on the reconstruction is deterministic
        a, b = tmp_path / "a.mtk", tmp_path / "b.mtk"
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]),
                         "--in", str(volume), "--out", str(a)]) == 0
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]),
                         "--in", str(volume), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_checkpoint_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.mck"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert cli.main(["tokenize", "--ckpt", str(bad),
                         "--in", str(workspace["keypoints"]),
                         "--out", str(tmp_path / "t.mtk")]) == 5

    @pytest.mark.parametrize("record", ["[1]", "5"])
    def test_keypoint_record_not_object_code(self, workspace, tmp_path, record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n")
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]), "--in", str(bad),
                         "--out", str(tmp_path / "t.mtk")]) == 5

    # Each one-frame record holds one fault, and each fault has its own message.
    BAD_KEYPOINTS = {
        "nan-coordinate": ('{"kp": [[NaN, 1]], "valid": [true]}', "finite coordinates"),
        "non-numeric-coordinate": ('{"kp": [["x", 1]], "valid": [true]}',
                                   "lists of numbers: could not convert string"),
        "kp-not-a-list": ('{"kp": 5, "valid": [true]}', '"kp" must be a list of joints'),
        "four-coordinates": ('{"kp": [[1, 2, 3, 4]], "valid": [true]}',
                             "a joint has 4 coordinates"),
        "valid-longer-than-kp": ('{"kp": [[1, 2]], "valid": [true, true]}',
                                 '"valid" must hold one flag for each of the 1 joints'),
    }

    @pytest.mark.parametrize("case", sorted(BAD_KEYPOINTS))
    def test_bad_keypoint_message(self, workspace, tmp_path, capsys, case):
        record, message = self.BAD_KEYPOINTS[case]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n")
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]), "--in", str(bad),
                         "--out", str(tmp_path / "t.mtk")]) == 5
        err = capsys.readouterr().err
        assert message in err
        assert "inconsistent joint counts" not in err

    def test_corrupt_tokens_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.mtk"
        bad.write_bytes(b"XXXX" + b"\x00" * 24)
        assert cli.main(["detokenize", "--ckpt", str(workspace["ckpt"]),
                         "--tokens", str(bad),
                         "--out", str(tmp_path / "v.mht")]) == 5


    @pytest.mark.parametrize("artifact", ["mtk", "mht", "mck"])
    def test_malformed_artifact_code(self, workspace, tmp_path, artifact):
        ckpt = str(workspace["ckpt"])
        bad = tmp_path / f"bad.{artifact}"
        if artifact == "mtk":
            bad.write_bytes(b"MTK1\x01")
            argv = ["detokenize", "--ckpt", ckpt, "--tokens", str(bad)]
        elif artifact == "mht":
            bad.write_bytes(b"MHT1\x00")
            argv = ["tokenize", "--ckpt", ckpt, "--in", str(bad)]
        else:  # a buffer offset pointing back into the header
            rewrite_checkpoint_header(
                ckpt, bad, lambda h: h["manifest"]["enc.stem.w"].update(offset=-8))
            argv = ["tokenize", "--ckpt", str(bad), "--in", str(workspace["keypoints"])]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 5


    @settings(FUZZ, max_examples=25)
    @given(data=st.data())
    def test_corrupt_checkpoint_never_crashes(self, workspace, tmp_path, data):
        blob = workspace["ckpt"].read_bytes()
        head = 8 + int.from_bytes(blob[4:8], "little")
        bad = tmp_path / "bad.mck"
        bad.write_bytes(corrupt(blob, data.draw(corruptions(len(blob), head))))
        assert cli.main(["tokenize", "--ckpt", str(bad), "--in", str(workspace["keypoints"]),
                         "--stride", "8", "--out", str(tmp_path / "t.mtk")]) in (0, 5)

    @pytest.fixture(scope="class")
    def tokens(self, workspace):
        out = workspace["root"] / "one_window.mtk"
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]),
                         "--in", str(workspace["keypoints"]), "--out", str(out)]) == 0
        return out

    @settings(FUZZ, max_examples=25)
    @given(data=st.data())
    def test_corrupt_tokens_never_crash(self, workspace, tokens, tmp_path, data):
        blob = tokens.read_bytes()
        bad = tmp_path / "bad.mtk"
        bad.write_bytes(corrupt(blob, data.draw(corruptions(len(blob)))))
        assert cli.main(["detokenize", "--ckpt", str(workspace["ckpt"]), "--tokens", str(bad),
                         "--out", str(tmp_path / "v.mht")]) in (0, 5)

    # Parameter buffers that do not fit the architecture the header's config builds.
    CONFIG_MISMATCH = {
        "stem-weight-extents": lambda h: h["manifest"]["enc.stem.w"].update(extents=[1]),
        "stem-bias-missing": lambda h: {**h, "manifest": {
            k: v for k, v in h["manifest"].items() if k != "enc.stem.b"}},
    }

    @pytest.mark.parametrize("case", sorted(CONFIG_MISMATCH))
    def test_checkpoint_not_matching_config_code(self, workspace, tmp_path, case):
        bad = tmp_path / "bad.mck"
        rewrite_checkpoint_header(workspace["ckpt"], bad, self.CONFIG_MISMATCH[case])
        assert cli.main(["tokenize", "--ckpt", str(bad), "--in", str(workspace["keypoints"]),
                         "--out", str(tmp_path / "out")]) == 5

    def test_checkpoint_bad_config_value_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.mck"
        rewrite_checkpoint_header(workspace["ckpt"], bad,
                                  lambda h: h["config"].update(sigma="x"))
        assert cli.main(["tokenize", "--ckpt", str(bad), "--in", str(workspace["keypoints"]),
                         "--out", str(tmp_path / "out")]) == 5


# Edits a user could make by hand to a keypoint file: one line dropped or
# duplicated, or one byte overwritten.
def keypoint_edits(blob):
    line = st.integers(0, len(blob.splitlines()) - 1)
    byte = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))
    return st.one_of(st.tuples(st.sampled_from(["drop", "duplicate"]), line),
                     st.tuples(st.just("byte"), byte))


def edit_keypoints(blob, edit):
    kind, at = edit
    if kind == "byte":
        return corrupt(blob, at)
    lines = blob.splitlines(keepends=True)
    lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
    return b"".join(lines)


# TINY_CONFIG with every field spelled out, and one value of each JSON type.
FULL_CONFIG = json.loads(json.dumps({
    **TINY_CONFIG, "model": asdict(mdl.ModelConfig(**TINY_CONFIG["model"])),
    "trainer": asdict(tr.TrainerConfig(**TINY_CONFIG["trainer"]))}))
JSON_VALUES = (None, True, 3, 2.5, "8", [8, 16, 16], {"a": 1})


def config_fields(value, path=()):
    """The path of every value in a JSON document, containers included."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from config_fields(item, path + (key,))


class TestTextInputs:
    """Hand-edited text inputs end in a documented exit code, never a traceback."""

    CODES = (0, 2, 3, 5)

    def run(self, capsys, argv):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in self.CODES, err
        assert "Traceback" not in err

    @FUZZ
    @given(data=st.data())
    def test_edited_keypoints(self, workspace, tmp_path, capsys, data):
        blob = workspace["keypoints"].read_bytes()
        bad = tmp_path / "edited.jsonl"
        bad.write_bytes(edit_keypoints(blob, data.draw(keypoint_edits(blob))))
        self.run(capsys, ["tokenize", "--ckpt", str(workspace["ckpt"]), "--in", str(bad),
                          "--stride", "8", "--out", str(tmp_path / "t.mtk")])

    @FUZZ
    @given(data=st.data())
    def test_config_field_type_changed(self, workspace, tmp_path, capsys, data):
        path = data.draw(st.sampled_from(list(config_fields(FULL_CONFIG))))
        raw = copy.deepcopy(FULL_CONFIG)
        *parents, last = path
        holder = raw
        for key in parents:
            holder = holder[key]
        holder[last] = data.draw(st.sampled_from(
            [v for v in JSON_VALUES if type(v) is not type(holder[last])]))
        cfg = tmp_path / "edited.json"
        cfg.write_text(json.dumps(raw))
        self.run(capsys, ["train", "--config", str(cfg), "--data", str(workspace["keypoints"]),
                          "--steps", "1", "--out", str(tmp_path / "run")])


class TestEval:
    def test_scores_the_detokenize_output(self, workspace, tmp_path):
        ckpt = str(workspace["ckpt"])
        assert cli.main(["tokenize", "--ckpt", ckpt, "--in", str(workspace["keypoints"]),
                         "--stride", "8", "--out", str(tmp_path / "w.mtk")]) == 0
        volume = tmp_path / "w.mht"
        assert cli.main(["detokenize", "--ckpt", ckpt, "--tokens",
                         str(tmp_path / "w_0000.mtk"), "--out", str(volume)]) == 0
        xhat = tc.load_tensor(volume)

        state, _ = mdl.load_checkpoint(ckpt)
        kp = hm.load_keypoints(workspace["keypoints"])
        win = tr.prepare_windows(state.config, hm.window(kp, 8, 8))[0]
        x = np.moveaxis(win, 0, 1)  # [F,C,H,W], as detokenize writes it
        report = mx.evaluate(state, [win])
        assert (report.ssim, report.psnr, report.l1, report.tstd) == \
            (mx.ssim(x, xhat), mx.psnr(x, xhat), mx.l1(x, xhat), mx.tstd(xhat))
        z_e, grid, _ = mdl.encode(state, win[None])
        assert report.qloss == mx.qloss(z_e.data, grid.indices, state.codebook.entries.data)

    def test_report_files(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["eval", "--ckpt", str(workspace["ckpt"]),
                         "--data", str(workspace["keypoints"]),
                         "--stride", "8", "--tag", "smoke",
                         "--out", str(out)])
        assert code == 0
        assert "ssim=" in capsys.readouterr().out
        header = out.read_text().splitlines()[0]
        assert header == "model,compression,vocab,ssim,psnr,l1,tstd,qloss"
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload[0]["model"] == "smoke"
        assert np.isfinite(payload[0]["ssim"])

    def test_invalid_joint_with_nan_coordinates(self, workspace, tmp_path):
        # Joint 0 is marked invalid in every frame, with NaN coordinates.
        lines = []
        for line in workspace["keypoints"].read_text().splitlines():
            rec = json.loads(line)
            rec["kp"][0], rec["valid"][0] = [float("nan")] * 2, False
            lines.append(json.dumps(rec) + "\n")
        data = tmp_path / "nan.jsonl"
        data.write_text("".join(lines))
        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--ckpt", str(workspace["ckpt"]), "--data", str(data),
                         "--stride", "8", "--out", str(out)]) == 0
        row = json.loads(out.with_suffix(".json").read_text())[0]
        assert all(np.isfinite(row[k]) for k in ("ssim", "psnr", "l1", "tstd", "qloss"))

    def test_manifest_written(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        cli.main(["eval", "--ckpt", str(workspace["ckpt"]),
                  "--data", str(workspace["keypoints"]),
                  "--stride", "8", "--out", str(out)])
        manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert str(workspace["ckpt"]) in manifest["inputs"]


# JSON the parser gives up on: nesting past the recursion limit
# (RecursionError) and an integer of more than 4,300 digits (ValueError).
PAST_JSON_LIMITS = {"deep": "[" * 100_000, "long-int": "1" * 5000}


class TestJsonPastParserLimits:
    """Each JSON input exits with its own code, without a traceback, when the
    parser gives up on it."""

    @pytest.mark.parametrize("case", sorted(PAST_JSON_LIMITS))
    def test_config_code(self, workspace, tmp_path, capsys, case):
        bad = tmp_path / "bad.json"
        bad.write_text(PAST_JSON_LIMITS[case])
        assert cli.main(["train", "--config", str(bad), "--data", str(workspace["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # and a coordinate past the float range, which NumPy cannot convert
    KEYPOINTS = PAST_JSON_LIMITS | {
        "coordinate-past-float": '{"kp": [[1' + "0" * 400 + ', 1]], "valid": [true]}'}

    @pytest.mark.parametrize("case", sorted(KEYPOINTS))
    def test_keypoints_code(self, workspace, tmp_path, capsys, case):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(self.KEYPOINTS[case] + "\n")
        assert cli.main(["tokenize", "--ckpt", str(workspace["ckpt"]), "--in", str(bad),
                         "--out", str(tmp_path / "t.mtk")]) == 5
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "t.mtk").exists()

    @pytest.mark.parametrize("case", sorted(PAST_JSON_LIMITS))
    def test_checkpoint_header_code(self, workspace, tmp_path, capsys, case):
        blob = workspace["ckpt"].read_bytes()
        raw = PAST_JSON_LIMITS[case].encode("utf-8")
        bad = tmp_path / "bad.mck"
        bad.write_bytes(blob[:4] + len(raw).to_bytes(4, "little") + raw
                        + blob[8 + int.from_bytes(blob[4:8], "little"):])
        assert cli.main(["tokenize", "--ckpt", str(bad), "--in", str(workspace["keypoints"]),
                         "--out", str(tmp_path / "t.mtk")]) == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(PAST_JSON_LIMITS))
    def test_loss_log_code(self, workspace, tmp_path, capsys, case):
        # The workspace's 3-step run with its log's second line replaced,
        # resumed from its final checkpoint: nothing may be written.
        run = tmp_path / "run"
        shutil.copytree(workspace["run"], run)
        log = run / "loss_log.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[1] = PAST_JSON_LIMITS[case].encode("utf-8") + b"\n"
        log.write_bytes(b"".join(lines))
        garbled, final = log.read_bytes(), (run / "ckpt_final.mck").read_bytes()
        assert cli.main(["train", "--config", str(workspace["config"]),
                         "--data", str(workspace["keypoints"]), "--steps", "5", "--seed", "3",
                         "--resume", str(run / "ckpt_final.mck"), "--out", str(run)]) == 5
        err = capsys.readouterr().err
        assert f"{log}:2: malformed loss log line" in err and "Traceback" not in err
        assert log.read_bytes() == garbled
        assert (run / "ckpt_final.mck").read_bytes() == final


@pytest.mark.parametrize("command", ["tokenize", "eval", "train"])
def test_nonfinite_heatmap_input_code(workspace, tmp_path, capsys, command):
    # A heatmap volume with one infinite value is rejected before anything
    # is written.
    vol = np.zeros((8, 2, 16, 16), dtype=np.float32)  # [T,C,H,W], as detokenize writes
    vol[3, 1, 5, 7] = np.inf
    bad = tmp_path / "bad.mht"
    tc.save_tensor(bad, vol)
    ckpt, out = str(workspace["ckpt"]), str(tmp_path / "out")
    argv = {"tokenize": ["tokenize", "--ckpt", ckpt, "--in", str(bad), "--out", out],
            "eval": ["eval", "--ckpt", ckpt, "--data", str(bad), "--out", out],
            "train": ["train", "--config", str(workspace["config"]), "--data", str(bad),
                      "--steps", "1", "--out", out]}[command]
    assert cli.main(argv) == 5
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [bad]


TRIPLANE_CONFIG = {
    "schema": 1,
    "model": dict(TINY_CONFIG["model"], mode="triplane", in_channels=12, vocab=32),
    "trainer": TINY_CONFIG["trainer"],
    "window_stride": 8,
}


class TestTriplane:
    """synth --dims 3 -> train -> tokenize -> detokenize -> eval on a tri-plane config."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("triplane")
        cfg = root / "config.json"
        cfg.write_text(json.dumps(TRIPLANE_CONFIG))
        kp = root / "motion.jsonl"
        assert cli.main(["synth", "--dims", "3", "--joints", "4", "--frames", "24",
                         "--width", "16", "--height", "16", "--depth", "16",
                         "--seed", "5", "--out", str(kp)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--data", str(kp),
                         "--steps", "2", "--seed", "5", "--out", str(root / "run")]) == 0
        return {"root": root, "config": cfg, "keypoints": kp,
                "ckpt": root / "run" / "ckpt_final.mck"}

    def test_round_trip(self, run, tmp_path):
        ckpt, kp = str(run["ckpt"]), str(run["keypoints"])
        assert cli.main(["tokenize", "--ckpt", ckpt, "--in", kp, "--stride", "8",
                         "--out", str(tmp_path / "w.mtk")]) == 0
        volume = tmp_path / "w.mht"
        assert cli.main(["detokenize", "--ckpt", ckpt, "--tokens",
                         str(tmp_path / "w_0000.mtk"), "--out", str(volume)]) == 0
        recon = tc.load_tensor(volume)
        assert recon.shape == (8, 12, 16, 16)
        assert recon.min() >= 0.0 and recon.max() <= 1.0

        state, _ = mdl.load_checkpoint(ckpt)
        wins = tr.prepare_windows(state.config, hm.window(hm.load_keypoints(kp), 8, 8))
        produced = sorted(tmp_path.glob("w_*.mtk"))
        assert len(produced) == len(wins) == 3
        for path, win in zip(produced, wins):
            _, grid, _ = mdl.encode(state, win[None])
            assert np.array_equal(qz.load_tokens(path).indices, grid.indices)

        out = tmp_path / "report.csv"
        assert cli.main(["eval", "--ckpt", ckpt, "--data", kp, "--stride", "8",
                         "--out", str(out)]) == 0
        row = json.loads(out.with_suffix(".json").read_text())[0]
        assert all(np.isfinite(row[k]) for k in ("ssim", "psnr", "l1", "tstd", "qloss"))

    def test_channels_not_three_per_joint_code(self, run, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TRIPLANE_CONFIG,
                                   "model": {**TRIPLANE_CONFIG["model"], "in_channels": 4}}))
        assert cli.main(["train", "--config", str(bad), "--data", str(run["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_2d_keypoints_code(self, run, workspace, tmp_path, capsys):
        assert cli.main(["train", "--config", str(run["config"]),
                         "--data", str(workspace["keypoints"]),
                         "--steps", "1", "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "motok" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])
