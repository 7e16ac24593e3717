"""Integration tests for contamination containment (DESIGN.md §10).

The seeded fault is ``ntdll50:RtlFreeHeap:MIA:5`` — removing that guard
makes frees silently leak, so every slot it is active leaves residual
heap blocks the slot-gap audit must catch: audit → contaminated-slot
flag → verified reboot → clean continuation.
"""

import json

import pytest

from repro.faults.faultload import Faultload
from repro.harness.campaign import (
    ParallelCampaign,
    ShardOutcome,
    merge_outcomes,
)
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import WebServerExperiment
from repro.specweb.metrics import MetricsPartial

LEAK_FAULT = "repro.ossim.modules.ntdll50:RtlFreeHeap:MIA:5"


def smoke_config(**overrides):
    config = ExperimentConfig.smoke()
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def seeded_faultload(config, leak_slots=1, benign_slots=2):
    """``leak_slots`` copies of the leaking fault, then benign slots."""
    experiment = WebServerExperiment(config)
    raw = experiment.raw_faultload()
    by_id = {location.fault_id: location for location in raw}
    leak = by_id[LEAK_FAULT]
    benign = [
        location for location in raw
        if "RtlFreeHeap" not in location.fault_id
        and location.fault_id.split(":")[2] == "MVI"
    ][:benign_slots]
    assert len(benign) == benign_slots
    return Faultload(
        config.os_codename,
        tuple([leak] * leak_slots + benign),
        name="seeded-leak",
        prepared=True,
    )


# ----------------------------------------------------------------------
# Audit -> flag -> verified reboot -> clean continuation
# ----------------------------------------------------------------------
def test_heap_leak_triggers_verified_reboot_and_clean_continuation():
    config = smoke_config()
    experiment = WebServerExperiment(config)
    faultload = seeded_faultload(config)
    run = experiment.run_slots(faultload, iteration=1)
    assert run.faults_injected == len(faultload)
    # Slot 0 (the leak) was flagged and rebooted away.
    assert len(run.contaminated_slots) == 1
    record = run.contaminated_slots[0]
    assert record["slot"] == 0
    assert record["fault_id"] == LEAK_FAULT
    assert record["kinds"] == ["heap-leak"]
    assert record["rebooted"] is True
    assert run.reboots == [{"after_slot": 0, "verified": True}]
    # The reboot split the run into two machine epochs, and the benign
    # slots after it ran on the clean machine without new flags.
    assert len(run.segments) == 2
    assert [len(windows) for _partial, windows in run.segments] == [1, 2]
    # The merged metrics cover all three slots.
    metrics = run.compute_metrics(config.client.connections)
    assert metrics.total_ops > 0
    assert metrics.measured_seconds == pytest.approx(
        3 * config.rules.slot_seconds
    )


def test_reboot_budget_exhaustion_degrades_gracefully():
    config = smoke_config(reboot_budget=1)
    experiment = WebServerExperiment(config)
    faultload = seeded_faultload(config, leak_slots=3, benign_slots=1)
    run = experiment.run_slots(faultload, iteration=1)
    # Only the first leak earned a reboot.  After the budget is spent
    # the machine stays dirty, so the remaining leak slots AND the
    # benign slot that follows them are all flagged: residual damage
    # keeps being attributed until a reboot clears it.
    assert len(run.contaminated_slots) == 4
    assert [r["rebooted"] for r in run.contaminated_slots] == [
        True, False, False, False,
    ]
    assert len(run.reboots) == 1
    # The run still completed every slot on the contaminated machine.
    assert run.faults_injected == len(faultload)
    assert len(run.segments) == 2


def test_auditing_can_be_disabled():
    config = smoke_config(integrity_audit=False)
    experiment = WebServerExperiment(config)
    faultload = seeded_faultload(config)
    run = experiment.run_slots(faultload, iteration=1)
    assert not run.integrity_enabled
    assert run.audits_performed == 0
    assert run.contaminated_slots == []
    assert len(run.segments) == 1
    iteration = experiment.run_injection(faultload, iteration=1)
    assert iteration.residual_errors is None
    assert iteration.as_row()["RES"] is None


def test_run_injection_carries_contamination_records():
    config = smoke_config()
    experiment = WebServerExperiment(config)
    faultload = seeded_faultload(config)
    iteration = experiment.run_injection(faultload, iteration=1)
    assert iteration.integrity_enabled
    assert iteration.residual_errors == 1
    assert iteration.as_row()["RES"] == 1
    assert iteration.reboots[0]["verified"] is True


# ----------------------------------------------------------------------
# Determinism: reboots must not break workers=1 vs workers=N parity
# ----------------------------------------------------------------------
def contamination_view(result):
    return [
        (it.iteration, it.contaminated_slots, it.reboots)
        for it in result.iterations
    ]


def test_campaign_digest_identical_across_workers_with_reboots():
    from repro.harness.telemetry import metrics_digest

    config = smoke_config()
    config.rules = type(config.rules)(
        warmup_seconds=3.0, rampup_seconds=1.0, rampdown_seconds=1.0,
        iterations=1, slot_seconds=4.0, slot_gap_seconds=1.0,
        baseline_seconds=12.0,
    )
    faultload = seeded_faultload(config, leak_slots=2, benign_slots=4)

    config.slots_per_shard = 2

    def run(workers):
        return ParallelCampaign(config, workers=workers).run(
            faultload=faultload,
            include_baseline=False, include_profile_mode=False,
        )

    serial = run(1)
    parallel = run(2)
    # The seeded leaks really did contaminate and reboot.
    assert sum(
        len(it.contaminated_slots) for it in serial.iterations
    ) == 2
    assert sum(len(it.reboots) for it in serial.iterations) == 2
    assert contamination_view(serial) == contamination_view(parallel)
    assert metrics_digest(serial) == metrics_digest(parallel)


def seeded_campaign_manifest(tmp_path, **overrides):
    """The manifest of a one-worker campaign over one leaking slot and
    three benign ones, in shards of two slots."""
    config = smoke_config(fault_sample=None, slots_per_shard=2,
                          **overrides)
    faultload = seeded_faultload(config, leak_slots=1, benign_slots=3)
    campaign = ParallelCampaign(
        config, workers=1, journal_path=tmp_path / "campaign.jsonl",
    )
    campaign.run(
        faultload=faultload,
        include_baseline=False, include_profile_mode=False,
    )
    return campaign.manifest


def test_manifest_reports_integrity_summary(tmp_path):
    manifest = seeded_campaign_manifest(tmp_path)
    assert manifest.integrity["enabled"] is True
    assert manifest.integrity["contaminated_slots"] == 1
    assert manifest.integrity["reboots"] == 1
    assert manifest.integrity["unrebooted_contamination"] == 0
    assert manifest.integrity["violation_kinds"] == {"heap-leak": 1}
    # The manifest on disk round-trips the integrity block.
    from repro.harness.telemetry import RunManifest, read_telemetry

    loaded = RunManifest.load(tmp_path / "campaign.manifest.json")
    assert loaded.integrity == manifest.integrity
    events = read_telemetry(tmp_path / "campaign.telemetry.jsonl")
    summaries = [e for e in events if e["event"] == "integrity_summary"]
    assert len(summaries) == 1
    assert summaries[0]["contaminated_slots"] == 1
    shard_done = [e for e in events if e["event"] == "shard_done"]
    assert any(e.get("contaminated_slots") for e in shard_done)


def test_pristine_manifest_reports_integrity_summary(tmp_path):
    """Pristine slots never reboot, yet leave no contamination in place:
    a fresh machine follows every slot but a shard's last, and nothing
    follows that one."""
    manifest = seeded_campaign_manifest(tmp_path, pristine_slots=True)
    assert manifest.integrity["contaminated_slots"] == 1
    assert manifest.integrity["reboots"] == 0
    assert manifest.integrity["unrebooted_contamination"] == 0
    assert manifest.integrity["violation_kinds"] == {"heap-leak": 1}


# ----------------------------------------------------------------------
# Journal / merge plumbing
# ----------------------------------------------------------------------
def test_shard_outcome_roundtrips_contamination_records():
    outcome = ShardOutcome(
        shard_index=1, first_slot=2, num_slots=2,
        partial=MetricsPartial(total_ops=5, total_errors=0,
                               latency_sum=0.5, latency_count=5,
                               conforming_sum=2.0, group_count=1,
                               measured_seconds=8.0),
        mis=0, kns=0, kcp=0, faults_injected=2,
        runtime_stats={},
        contaminated_slots=[{
            "fault_id": "f", "kinds": ["heap-leak"], "rebooted": True,
            "slot": 2, "violations": 1,
        }],
        reboots=[{"after_slot": 2, "verified": True}],
        integrity_enabled=True,
    )
    restored = ShardOutcome.from_dict(
        json.loads(json.dumps(outcome.to_dict()))
    )
    assert restored == outcome


def test_merge_outcomes_concatenates_in_slot_order():
    def outcome(index, slot):
        return ShardOutcome(
            shard_index=index, first_slot=slot, num_slots=1,
            partial=MetricsPartial(), mis=0, kns=0, kcp=0,
            faults_injected=1, runtime_stats={},
            contaminated_slots=[{"slot": slot, "kinds": ["heap-leak"],
                                 "fault_id": "f", "rebooted": True,
                                 "violations": 1}],
            reboots=[{"after_slot": slot, "verified": True}],
            integrity_enabled=True,
        )

    merged = merge_outcomes(
        [outcome(1, 1), outcome(0, 0)], iteration=1, num_connections=8
    )
    assert [r["slot"] for r in merged.contaminated_slots] == [0, 1]
    assert [r["after_slot"] for r in merged.reboots] == [0, 1]
    assert merged.integrity_enabled
    assert merged.residual_errors == 2
