import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def identity_check():
    sys.path.insert(0, str(TOOLS))  # it imports bench_compare from beside it
    try:
        spec = importlib.util.spec_from_file_location("identity_check", TOOLS / "identity_check.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(TOOLS))
    return mod


def write_log(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return path


def test_log_diffs_reads_each_keys_largest_relative_difference(identity_check, tmp_path):
    base = write_log(tmp_path / "base.jsonl", [{"step": 1, "l1": 2.0, "g": 0.0, "d": 0.0},
                                               {"step": 2, "l1": 4.0, "g": -0.5, "d": 0.0}])
    change = write_log(tmp_path / "change.jsonl", [{"step": 1, "l1": 2.001, "g": 0.0, "d": 0.25},
                                                   {"step": 2, "l1": 4.0, "g": -0.4, "d": 0.0}])
    parts = dict(part.rsplit(" ", 1)
                 for part in identity_check.log_diffs(base, change).split(", "))
    assert list(parts) == ["step", "l1", "g", "d"]
    assert float(parts["step"]) == 0.0
    assert float(parts["l1"]) == pytest.approx(5e-4, rel=1e-2)
    assert float(parts["g"]) == pytest.approx(0.2, rel=1e-2)
    assert math.isinf(float(parts["d"]))


def test_log_diffs_names_a_shape_mismatch(identity_check, tmp_path):
    base = write_log(tmp_path / "base.jsonl", [{"step": 1, "l1": 2.0}])
    longer = write_log(tmp_path / "longer.jsonl", [{"step": 1, "l1": 2.0}, {"step": 2, "l1": 1.0}])
    other_keys = write_log(tmp_path / "keys.jsonl", [{"step": 1, "vq": 2.0}])
    for change in (longer, other_keys):
        assert identity_check.log_diffs(base, change) == "line count or keys differ"
