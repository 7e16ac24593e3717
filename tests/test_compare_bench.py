"""``benchmarks/compare_bench.py``: the bench-regression gate (tier-1).

The gate compares a fresh bench record against the checked-in one: a
drop beyond the tolerance exits 1, a missing baseline warns and exits 0,
records of different modes (smoke vs full) exit 2.  Under each hot-path
ratio it prints the ratio's two recorded legs, which are never gated.
"""

import copy
import json
from pathlib import Path

import pytest

HOT_PATH = {
    "bench": "hot_path",
    "python": "3.11.7",
    "smoke": False,
    "epoch_setup": {
        "boot_ms": 144.336, "image_kb": 322.1, "restore_ms": 5.937,
        "speedup": 24.3,
    },
    "repeat_injection": {
        "cold_ms_per_slot": 0.6593, "slots": 48, "speedup": 133.7,
        "warm_ms_per_slot": 0.0049,
    },
    "single_pass_scan": {
        "functions": 87, "operators": 12, "per_operator_ms": 131.81,
        "single_pass_ms": 43.8, "speedup": 3.01,
    },
}


@pytest.fixture
def compare_bench(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    import compare_bench

    return compare_bench


def _write(directory, name, record):
    path = directory / name
    path.write_text(json.dumps(record))
    return str(path)


def _run(compare_bench, tmp_path, fresh, baseline=HOT_PATH):
    return compare_bench.main([
        _write(tmp_path, "baseline.json", baseline),
        _write(tmp_path, "fresh.json", fresh),
        "--tolerance", "0.30",
    ])


def test_an_unchanged_record_passes(compare_bench, tmp_path, capsys):
    assert _run(compare_bench, tmp_path, HOT_PATH) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out
    assert out.count("        ok  ") == 3


def test_a_drop_beyond_the_tolerance_fails(compare_bench, tmp_path, capsys):
    fresh = copy.deepcopy(HOT_PATH)
    fresh["single_pass_scan"]["speedup"] = 2.0  # 3.01 * 0.7 = 2.107
    assert _run(compare_bench, tmp_path, fresh) == 1
    captured = capsys.readouterr()
    assert "REGRESSION  single-pass-scan speedup: 3.01 -> 2" in captured.out
    assert "beyond 30% tolerance" in captured.err


def test_a_missing_baseline_warns_and_passes(compare_bench, tmp_path,
                                            capsys):
    status = compare_bench.main([
        str(tmp_path / "absent.json"),
        _write(tmp_path, "fresh.json", HOT_PATH),
    ])
    assert status == 0
    assert "not found" in capsys.readouterr().err


def test_a_smoke_record_is_not_compared_with_a_full_one(compare_bench,
                                                       tmp_path, capsys):
    fresh = dict(HOT_PATH, smoke=True)
    assert _run(compare_bench, tmp_path, fresh) == 2
    assert "not comparable" in capsys.readouterr().err


def test_each_ratio_prints_its_two_legs(compare_bench, tmp_path, capsys):
    """A lower warm-inject ratio from a faster cold leg reads as such;
    the legs are informational, so the exit code follows the ratio."""
    fresh = copy.deepcopy(HOT_PATH)
    fresh["repeat_injection"].update(cold_ms_per_slot=0.94, speedup=110.0)
    del fresh["epoch_setup"]["restore_ms"]
    assert _run(compare_bench, tmp_path, fresh) == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        "ok  warm-inject speedup: 133.7 -> 110 (-17.7%)",
        "cold_ms_per_slot: 0.6593 -> 0.94",
        "warm_ms_per_slot: 0.0049 -> 0.0049",
        "ok  single-pass-scan speedup: 3.01 -> 3.01 (+0.0%)",
        "per_operator_ms: 131.81 -> 131.81",
        "single_pass_ms: 43.8 -> 43.8",
        "ok  epoch restore speedup: 24.3 -> 24.3 (+0.0%)",
        "boot_ms: 144.336 -> 144.336",
        "restore_ms: 5.937 -> missing",
    ]
