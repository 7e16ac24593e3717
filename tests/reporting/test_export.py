"""Tests for the results export."""

import json

import pytest

from repro.harness.results import BenchmarkResult, InjectionIteration
from repro.reporting.export import (
    export_campaign,
    export_faultload_summary,
)
from repro.specweb.metrics import SpecWebMetrics


def _metrics(spc=10.0, thr=40.0):
    return SpecWebMetrics(
        spc=spc, cc_percent=80.0, thr=thr, rtm_ms=300.0,
        er_percent=2.0, total_ops=1000, total_errors=20,
        measured_seconds=100.0,
    )


@pytest.fixture
def result():
    result = BenchmarkResult("apache", "nt50", "Windows 2000 SP4 (sim)")
    result.baseline = _metrics(spc=12.0)
    result.profile_mode = _metrics(spc=11.8)
    for iteration in (1, 2):
        result.add_iteration(InjectionIteration(
            iteration=iteration, metrics=_metrics(spc=4.0, thr=38.0),
            mis=3, kns=2, kcp=0, faults_injected=50,
            runtime_stats={"crashes": 7},
        ))
    return result


def test_export_campaign_files(tmp_path, result):
    written = export_campaign(result, tmp_path / "out")
    names = {path.name for path in written}
    assert names == {"campaign.json", "iterations.csv", "summary.txt"}
    for path in written:
        assert path.exists()


def test_campaign_json_contents(tmp_path, result):
    export_campaign(result, tmp_path)
    payload = json.loads((tmp_path / "campaign.json").read_text())
    assert payload["server"] == "apache"
    assert payload["baseline"]["spc"] == 12.0
    assert len(payload["iterations"]) == 2
    assert payload["iterations"][0]["row"]["MIS"] == 3
    assert payload["average"]["SPC"] == pytest.approx(4.0)
    assert payload["dependability"]["ADMf"] == pytest.approx(5.0)


def test_campaign_json_includes_config(tmp_path, result):
    from repro.harness.config import ExperimentConfig

    config = ExperimentConfig.smoke()
    export_campaign(result, tmp_path, config=config)
    payload = json.loads((tmp_path / "campaign.json").read_text())
    assert payload["config"]["seed"] == config.seed
    assert payload["config"]["connections"] == (
        config.connections
    )


def test_iterations_csv_shape(tmp_path, result):
    export_campaign(result, tmp_path)
    lines = (tmp_path / "iterations.csv").read_text().splitlines()
    assert lines[0].startswith("iteration,SPC,THR")
    assert len(lines) == 3  # header + 2 iterations


def test_summary_text_readable(tmp_path, result):
    export_campaign(result, tmp_path)
    text = (tmp_path / "summary.txt").read_text()
    assert "apache on Windows 2000" in text
    assert "average:" in text


def test_export_without_iterations(tmp_path):
    result = BenchmarkResult("abyss", "nt51", "XP")
    result.baseline = _metrics()
    written = export_campaign(result, tmp_path)
    payload = json.loads((tmp_path / "campaign.json").read_text())
    assert payload["dependability"] is None
    assert payload["average"] == {}
    assert len(written) == 3


def test_export_campaign_with_manifest_and_telemetry(tmp_path, result):
    from repro.harness.telemetry import (
        RunManifest,
        TelemetryWriter,
        metrics_digest,
    )

    manifest = RunManifest(
        campaign_key="k", server="apache", os_codename="nt50",
        os_display="W2k (sim)", seed=2004, build_fingerprint="f" * 64,
        faultload_digest="a" * 64, slots=96, workers=4,
        slots_per_shard=6, num_shards=16, iterations=2,
        journal_version=2, metrics_digest=metrics_digest(result),
    )
    telemetry_path = tmp_path / "raw-telemetry.jsonl"
    with TelemetryWriter(telemetry_path) as telemetry:
        telemetry.emit("campaign_start")
    written = export_campaign(
        result, tmp_path / "out", manifest=manifest,
        telemetry_path=telemetry_path,
    )
    names = {path.name for path in written}
    assert "run_manifest.json" in names
    assert "telemetry.jsonl" in names
    exported = json.loads(
        (tmp_path / "out" / "run_manifest.json").read_text()
    )
    assert exported["metrics_digest"] == manifest.metrics_digest


def test_export_campaign_reports_degradation(tmp_path, result):
    result.degraded = True
    result.quarantine = [{
        "iteration": 1, "shard_index": 3, "first_slot": 18,
        "num_slots": 6, "fault_ids": ["MFC-x"], "attempts": 3,
        "failures": ["crash: RuntimeError('boom')"],
    }]
    export_campaign(result, tmp_path)
    payload = json.loads((tmp_path / "campaign.json").read_text())
    assert payload["degraded"] is True
    assert payload["quarantine"][0]["shard_index"] == 3
    assert "DEGRADED" in (tmp_path / "summary.txt").read_text()


def test_export_faultload_summary(tmp_path):
    from repro.gswfit.scanner import scan_build
    from repro.ossim.builds import NT50

    faultload = scan_build(NT50).sample(30, seed=2)
    written = export_faultload_summary(faultload, tmp_path)
    assert {path.name for path in written} == {
        "faultload.json", "faultload_summary.json"
    }
    summary = json.loads(
        (tmp_path / "faultload_summary.json").read_text()
    )
    assert summary["total"] == 30
    assert sum(summary["by_type"].values()) == 30
    assert sum(summary["by_function"].values()) == 30
    # Round trip through the saved JSON.
    from repro.faults.faultload import Faultload

    reloaded = Faultload.load(tmp_path / "faultload.json")
    assert len(reloaded) == 30
