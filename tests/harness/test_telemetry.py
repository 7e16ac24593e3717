"""Tier-1 tests for the telemetry stream and the run manifest."""

import json

import pytest

from repro.harness.results import BenchmarkResult, InjectionIteration
from repro.harness.telemetry import (
    RunManifest,
    TelemetryWriter,
    faultload_digest,
    metrics_digest,
    read_telemetry,
)
from repro.specweb.metrics import SpecWebMetrics


def _metrics(spc=10.0):
    return SpecWebMetrics(
        spc=spc, cc_percent=80.0, thr=40.0, rtm_ms=300.0,
        er_percent=2.0, total_ops=1000, total_errors=20,
        measured_seconds=100.0,
    )


def _result(spc=4.0, mis=3):
    result = BenchmarkResult("apache", "nt50", "W2k (sim)")
    result.baseline = _metrics(spc=12.0)
    result.add_iteration(InjectionIteration(
        iteration=1, metrics=_metrics(spc=spc), mis=mis, kns=2, kcp=0,
        faults_injected=50, runtime_stats={"crashes": 7},
        incidents=[{"t": 12.5, "kind": "MIS"}],
    ))
    return result


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------
def test_writer_produces_parseable_ordered_jsonl(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with TelemetryWriter(path) as telemetry:
        telemetry.emit("campaign_start", workers=4)
        telemetry.emit("shard_done", shard=2, seconds=1.25)
    events = read_telemetry(path)
    # telemetry_open + the two explicit events, seq strictly monotone.
    assert [event["event"] for event in events] == [
        "telemetry_open", "campaign_start", "shard_done",
    ]
    assert [event["seq"] for event in events] == [0, 1, 2]
    assert events[1]["workers"] == 4
    assert events[2]["shard"] == 2


def test_writer_appends_across_reopens(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with TelemetryWriter(path) as telemetry:
        telemetry.emit("first")
    with TelemetryWriter(path) as telemetry:
        telemetry.emit("second")
    events = read_telemetry(path)
    kinds = [event["event"] for event in events]
    assert kinds == ["telemetry_open", "first", "telemetry_open",
                     "second"]
    assert [event["seq"] for event in events] == [0, 1, 2, 3]


def test_read_telemetry_drops_torn_final_line(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    with TelemetryWriter(path) as telemetry:
        telemetry.emit("whole")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "event": "to')  # killed mid-append
    events = read_telemetry(path)
    assert [event["event"] for event in events] == [
        "telemetry_open", "whole",
    ]


def test_reopened_stream_after_torn_final_line_stays_readable(tmp_path):
    """A writer reopening the stream cuts the torn line off, so its
    events are not glued onto it (and lost, then unreadable)."""
    path = tmp_path / "telemetry.jsonl"
    with TelemetryWriter(path) as telemetry:
        telemetry.emit("whole")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 2, "event": "to')  # killed mid-append
    with TelemetryWriter(path) as telemetry:
        telemetry.emit("after")
    assert [event["event"] for event in read_telemetry(path)] == [
        "telemetry_open", "whole", "telemetry_open", "after",
    ]


def test_emit_is_one_complete_write(tmp_path):
    """Regression: emit() used to issue several handle.write() calls per
    event, so a crash mid-emit could tear a line in the middle of the
    stream — which read_telemetry treats as corruption.  One buffered
    write per record confines any tear to the final line."""
    path = tmp_path / "telemetry.jsonl"
    writes = []
    with TelemetryWriter(path) as telemetry:
        original = telemetry._handle.write

        def recording_write(text):
            writes.append(text)
            return original(text)

        telemetry._handle.write = recording_write
        telemetry.emit("alpha", detail={"nested": [1, 2]})
        telemetry.emit("beta")
    assert len(writes) == 2
    for text in writes:
        assert text.endswith("\n")
        assert text.count("\n") == 1
        json.loads(text)  # each write is a whole, parseable record


def test_journal_append_is_one_complete_write(tmp_path):
    from repro.harness.campaign import CampaignJournal

    journal = CampaignJournal(tmp_path / "campaign.jsonl")
    journal.write_header("k", num_shards=4, iterations=1)
    text = journal.path.read_text()
    assert text.endswith("\n")
    json.loads(text.rstrip("\n"))


def test_read_telemetry_raises_on_mid_stream_corruption(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    path.write_text('{"seq": 0, "event": "ok"}\nnot json\n'
                    '{"seq": 2, "event": "later"}\n')
    with pytest.raises(json.JSONDecodeError):
        read_telemetry(path)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def test_metrics_digest_is_stable_and_sensitive():
    digest = metrics_digest(_result())
    assert digest == metrics_digest(_result())
    assert digest != metrics_digest(_result(spc=4.1))
    assert digest != metrics_digest(_result(mis=4))


def _golden_result(epochs_booted=2):
    """A result with every digest field set to a non-default value."""
    result = BenchmarkResult("apache", "nt51", "XP (sim)")
    result.baseline = _metrics(spc=12.0)
    result.profile_mode = _metrics(spc=11.5)
    result.add_iteration(InjectionIteration(
        iteration=2, metrics=_metrics(spc=4.25), mis=3, kns=2, kcp=1,
        faults_injected=6,
        runtime_stats={"crashes": 7, "self_restarts": 2},
        incidents=[{"kind": "MIS", "t": 12.5}, {"kind": "KCP", "t": 40.0}],
        contaminated_slots=[{
            "fault_id": "ntdll51:RtlFreeHeap:MIA:5", "kinds": ["heap-leak"],
            "rebooted": True, "slot": 4, "violations": 1,
        }],
        reboots=[{"after_slot": 4, "verified": True}],
        integrity_enabled=True,
        activations=[
            {"fault_id": "ntdll51:RtlFreeHeap:MIA:5", "first_hit": 0.006976,
             "hits": 525, "slot": 4, "truncated": False},
            {"fault_id": "kernel3251:CreateFileW:MVAV:41", "first_hit": None,
             "hits": 0, "slot": 5, "truncated": True},
        ],
        faults_activated=1, slots_truncated=1, truncated_seconds=2.125001,
        activation_enabled=True,
        epochs_booted=epochs_booted, epochs_restored=3, pristine_restarts=1,
    ))
    return result


def test_metrics_digest_golden_payload():
    # Pinned before the accounting fields moved into one tally: the
    # hashed payload must stay byte-identical, or every recorded
    # campaign digest silently changes.
    assert metrics_digest(_golden_result()) == (
        "17e7a876163b0b3796cf015c9c439201e96e8fe6c1fc178cb2c3ece870160e0c"
    )
    # Epoch-setup accounting is diagnostic and stays outside the digest.
    assert metrics_digest(_golden_result(epochs_booted=9)) == (
        metrics_digest(_golden_result())
    )


def test_metrics_digest_ignores_supervision_bookkeeping():
    plain = _result()
    supervised = _result()
    supervised.degraded = True
    supervised.quarantine = [{"iteration": 1, "shard_index": 9}]
    # The digest covers the merged metrics, not how the run got there:
    # the same surviving slots hash identically however they ran.
    assert metrics_digest(plain) == metrics_digest(supervised)


def test_faultload_digest_is_order_sensitive():
    class Location:
        def __init__(self, fault_id):
            self.fault_id = fault_id

    forward = [Location("a"), Location("b")]
    backward = [Location("b"), Location("a")]
    assert faultload_digest(forward) != faultload_digest(backward)
    assert faultload_digest(forward) == faultload_digest(forward)


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
def _manifest(**overrides):
    fields = dict(
        campaign_key="deadbeef",
        server="apache",
        os_codename="nt50",
        os_display="W2k (sim)",
        seed=2004,
        build_fingerprint="f" * 64,
        faultload_digest="a" * 64,
        slots=96,
        workers=4,
        slots_per_shard=6,
        num_shards=16,
        iterations=3,
        journal_version=2,
        phase_timings={"baseline": 1.5, "iteration-1": 4.0},
        supervision={"retries": 1, "pool_rebuilds": 0,
                     "serial_fallback": False, "quarantined": [],
                     "degraded": False},
        metrics_digest="b" * 64,
        created_at=1_700_000_000.0,
    )
    fields.update(overrides)
    return RunManifest(**fields)


def test_manifest_roundtrips_through_disk(tmp_path):
    manifest = _manifest()
    path = manifest.write(tmp_path / "nested" / "run.manifest.json")
    assert path.exists()
    loaded = RunManifest.load(path)
    assert loaded == manifest


def test_manifest_json_is_sorted_and_complete(tmp_path):
    manifest = _manifest()
    path = manifest.write(tmp_path / "run.manifest.json")
    payload = json.loads(path.read_text())
    assert list(payload) == sorted(payload)
    for field in ("campaign_key", "seed", "build_fingerprint",
                  "faultload_digest", "workers", "phase_timings",
                  "supervision", "metrics_digest", "manifest_version"):
        assert field in payload
