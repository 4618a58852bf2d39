import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py"

SPEC = {"end_to_end": [
    {"name": "window_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def report(ms, mb):
    return {"correct": True, "failed": 0,
            "metrics": {"window_ms_p50": {"value": ms}, "peak_rss_mb": {"value": mb}}}


def pairs(base, change):
    return [(report(*b), report(*c)) for b, c in zip(base, change)]


def verdicts(bench_compare, base, change):
    out = bench_compare.compare(SPEC, pairs(base, change))
    return {name: (m["gain"], m["within_bound"]) for name, m in out["metrics"].items()}


def test_gain_needs_wins_and_a_margin_past_the_spread(bench_compare):
    base = [(100.0 + i % 2, 90.0 + 0.1 * (i % 2)) for i in range(10)]
    change = [(90.0, 88.5)] * 10
    assert verdicts(bench_compare, base, change) == {
        "window_ms_p50": (True, True), "peak_rss_mb": (True, True)}


def test_sub_mb_rss_margin_is_no_gain(bench_compare):
    # The change wins every pair by 0.9 MB, beyond the base's spread of 0.1 MB,
    # but not by the 1 MB that peak RSS needs. A time metric needs no such floor.
    base = [(100.0 + 0.1 * (i % 2), 90.0 + 0.1 * (i % 2)) for i in range(10)]
    change = [(99.5, 89.15)] * 10
    assert verdicts(bench_compare, base, change) == {
        "window_ms_p50": (True, True), "peak_rss_mb": (False, True)}


def test_too_few_pairs_or_wins_is_no_gain(bench_compare):
    base = [(100.0, 90.0)] * 9
    assert verdicts(bench_compare, base, [(80.0, 80.0)] * 9)["peak_rss_mb"] == (False, True)
    base = [(100.0, 90.0)] * 10
    change = [(80.0, 80.0)] * 8 + [(120.0, 95.0)] * 2
    assert verdicts(bench_compare, base, change) == {
        "window_ms_p50": (False, True), "peak_rss_mb": (False, True)}


def test_worse_beyond_bound(bench_compare):
    base = [(100.0, 90.0)] * 10
    out = verdicts(bench_compare, base, [(126.0, 99.5)] * 10)
    assert out == {"window_ms_p50": (False, False), "peak_rss_mb": (False, False)}


def test_errored_pairs_are_left_out(bench_compare):
    runs = pairs([(100.0, 90.0)] * 10, [(90.0, 80.0)] * 10)
    runs[3] = ({"error": "exit 1: boom"}, runs[3][1])
    out = bench_compare.compare(SPEC, runs)
    assert out["pairs"] == 10 and out["pairs_complete"] == 9
    assert out["errors"] == ["exit 1: boom"]
    assert not out["metrics"]["peak_rss_mb"]["gain"]  # nine complete pairs are too few
