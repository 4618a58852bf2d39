import importlib.util
import subprocess
import sys
from pathlib import Path

from motok.model import ModelConfig

PROBE = Path(__file__).resolve().parent.parent / "tools" / "paper_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("paper_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_train_phase_prints_its_columns(capsys):
    # One adversarial step at the README's smoke size: a header, a set-up
    # line and a train line, each phase with its five columns and the train
    # line with what the tape held when the generator's backward started.
    probe = load_probe()
    config = ModelConfig(compression="F8", vocab=128, embed_dim=16, base_channels=8,
                         in_channels=4, input_extents=(16, 32, 32), lambda_adv=0.1)
    probe.train_phase(config, batch=2)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["phase", "wall_s", "maxrss_mb", "minflt", "peak_mib",
                                "bwd_mib"]
    assert [line.split()[0] for line in lines[1:]] == ["setup", "train"]
    setup, train = (line.split()[1:] for line in lines[1:])
    assert len(setup) == 4 and len(train) == 5
    wall, rss, faults, peak, bwd = (float(v) for v in train)
    assert wall > 0 and rss > 0 and faults >= 0
    assert 0 < bwd <= peak


def test_watchdog_stops_the_process_past_its_limit():
    # Any Python process holds more than 1 MB, so the watchdog stops this one
    # at its first look, well before the sleep ends.
    code = ("import importlib.util, sys, time; "
            "spec = importlib.util.spec_from_file_location('probe', sys.argv[1]); "
            "probe = importlib.util.module_from_spec(spec); spec.loader.exec_module(probe); "
            "probe.start_watchdog(1); time.sleep(60)")
    proc = subprocess.run([sys.executable, "-c", code, str(PROBE)], capture_output=True,
                          text=True, timeout=50)
    assert proc.returncode == 1
    assert "passed --max-rss-mb 1; stopped" in proc.stderr
