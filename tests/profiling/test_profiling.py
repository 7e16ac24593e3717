"""Tests for tracing, usage analysis and faultload fine-tuning."""

import pytest

from repro.profiling import usage
from repro.profiling.finetune import tuned_faultload
from repro.profiling.tracer import ApiCallTracer
from repro.profiling.usage import UsageTable


def _tracer(label, counts):
    tracer = ApiCallTracer(label=label)
    for (module, function), count in counts.items():
        for _ in range(count):
            tracer.record(module, function)
    return tracer


@pytest.fixture
def tracers():
    """Three targets with overlapping but distinct API usage."""
    return {
        "alpha": _tracer("alpha", {
            ("Ntdll", "RtlAllocateHeap"): 50,
            ("Ntdll", "NtReadFile"): 30,
            ("Ntdll", "NtClose"): 19,
            ("Kernel32", "GetTickCount"): 1,   # negligible
        }),
        "beta": _tracer("beta", {
            ("Ntdll", "RtlAllocateHeap"): 40,
            ("Ntdll", "NtReadFile"): 40,
            ("Ntdll", "NtClose"): 10,
            ("Ntdll", "BetaOnlyCall"): 10,     # not used by all
        }),
        "gamma": _tracer("gamma", {
            ("Ntdll", "RtlAllocateHeap"): 60,
            ("Ntdll", "NtReadFile"): 20,
            ("Ntdll", "NtClose"): 15,
            ("Kernel32", "GetTickCount"): 5,
        }),
    }


def test_tracer_percentages():
    tracer = _tracer("x", {("Ntdll", "A"): 75, ("Ntdll", "B"): 25})
    assert tracer.percentage("Ntdll", "A") == 75.0
    assert tracer.percentage("Ntdll", "Missing") == 0.0
    assert tracer.total_calls == 100


def test_tracer_disabled_records_nothing():
    tracer = ApiCallTracer()
    tracer.enabled = False
    tracer.record("Ntdll", "A")
    assert tracer.total_calls == 0


def test_tracer_reset_and_merge():
    a = _tracer("a", {("Ntdll", "X"): 10})
    b = _tracer("b", {("Ntdll", "X"): 5, ("Ntdll", "Y"): 5})
    a.merge(b)
    assert a.counts[("Ntdll", "X")] == 15
    assert a.total_calls == 20
    a.reset()
    assert a.total_calls == 0


def test_usage_table_intersection_rule(tracers):
    table = UsageTable.from_tracers(tracers)
    selected = {row.function for row in table.select_relevant()}
    assert "BetaOnlyCall" not in selected  # beta-only: excluded
    assert "RtlAllocateHeap" in selected
    assert "NtReadFile" in selected


def test_usage_table_negligible_rule(tracers, monkeypatch):
    table = UsageTable.from_tracers(tracers)
    selected = {row.function for row in table.select_relevant()}
    # GetTickCount is used by alpha and gamma only; even if it were used
    # by all, its share is negligible.
    assert "GetTickCount" not in selected
    # With an absurdly high threshold nothing survives.
    monkeypatch.setattr(usage, "NEGLIGIBLE_PERCENT", 99.0)
    assert table.selected_function_names() == []


def test_usage_table_averages(tracers):
    table = UsageTable.from_tracers(tracers)
    row = table.row("Ntdll", "RtlAllocateHeap")
    assert row.average() == pytest.approx((50 + 40 + 60) / 3, abs=0.5)
    assert row.used_by_all(["alpha", "beta", "gamma"])


def test_total_call_coverage(tracers):
    table = UsageTable.from_tracers(tracers)
    coverage = table.total_call_coverage()
    assert 80.0 < coverage < 100.0


def test_rows_sorted(tracers):
    table = UsageTable.from_tracers(tracers)
    keys = [(row.module, row.function) for row in table.rows()]
    assert keys == sorted(keys)


def test_tuned_faultload_keeps_helpers():
    """Fine-tuning keeps internal helpers of selected modules."""
    from repro.gswfit.scanner import scan_build
    from repro.ossim.builds import NT50

    raw = scan_build(NT50)
    tuned = tuned_faultload(raw, ["NtReadFile"], NT50)
    functions = set(tuned.functions())
    assert "NtReadFile" in functions
    assert "_resolve_file_handle" in functions  # helper retained
    assert "RtlAllocateHeap" not in functions
    assert "CloseHandle" not in functions  # other module, none selected


def test_fine_tuner_end_to_end(tracers):
    from repro.gswfit.scanner import scan_build
    from repro.ossim.builds import NT50

    selected = UsageTable.from_tracers(tracers).selected_function_names()
    assert "RtlAllocateHeap" in selected
    tuned = tuned_faultload(scan_build(NT50), selected, NT50)
    assert 0 < len(tuned) < len(scan_build(NT50))
