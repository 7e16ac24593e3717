"""End-to-end integration tests of the faultload-definition pipeline."""

import pytest

from repro.harness.config import ExperimentConfig
from repro.pipeline import FaultloadPipeline, build_tuned_faultload


@pytest.fixture(scope="module")
def pipeline():
    config = ExperimentConfig.smoke()
    pipeline = FaultloadPipeline(config, profile_seconds=8.0)
    pipeline.run()
    return pipeline


def test_pipeline_produces_all_intermediates(pipeline):
    assert pipeline.raw_faultload is not None
    assert pipeline.usage_table is not None
    assert pipeline.tuned is not None


def test_tuning_is_a_restriction(pipeline):
    raw_ids = {loc.fault_id for loc in pipeline.raw_faultload}
    tuned_ids = {loc.fault_id for loc in pipeline.tuned}
    assert tuned_ids <= raw_ids
    assert 0 < len(tuned_ids) <= len(raw_ids)


def test_selected_functions_used_by_all_servers(pipeline):
    table = pipeline.usage_table
    for row in table.select_relevant():
        assert row.used_by_all(table.target_names), row.function


def test_server_specific_calls_excluded(pipeline):
    """Per-server idiosyncratic traffic must not survive intersection."""
    selected = set(pipeline.usage_table.selected_function_names())
    assert "RtlSizeHeap" not in selected        # apache-only
    assert "NtDelayExecution" not in selected   # savant-only
    assert "GetLastError" not in selected       # abyss+sambar only
    assert "NtQuerySystemTime" not in selected  # apache+savant only


def test_core_hot_functions_selected(pipeline):
    selected = set(pipeline.usage_table.selected_function_names())
    for name in ("RtlAllocateHeap", "RtlFreeHeap", "NtReadFile",
                 "NtClose", "RtlEnterCriticalSection",
                 "RtlDosPathNameToNtPathName_U"):
        assert name in selected, name


def test_coverage_is_substantial_but_not_total(pipeline):
    coverage = pipeline.usage_table.total_call_coverage()
    assert 60.0 < coverage < 99.0


def test_one_call_helper():
    config = ExperimentConfig.smoke()
    tuned = build_tuned_faultload(
        config, servers=("apache", "abyss"), profile_seconds=5.0
    )
    assert len(tuned) > 0


def test_tuned_faultload_counts_shape(pipeline):
    from repro.faults.types import FaultType

    counts = pipeline.tuned.counts_by_type()
    assert max(counts, key=counts.get) is FaultType.MIA
