"""Tests for the parallel campaign engine (tier-1).

The load-bearing property: the merged result of a campaign is a pure
function of (config, seed, faultload) — never of the worker count or of
which units a resumed run replays from the journal.
"""

import json

import pytest

from repro.harness.campaign import (
    JOURNAL_VERSION,
    CampaignJournal,
    ParallelCampaign,
    ShardOutcome,
    campaign_key,
    merge_outcomes,
    plan_shards,
    run_shard,
)
from repro.harness.experiment import WebServerExperiment
from repro.harness.machine import ServerMachine
from repro.harness.results import SlotTally
from repro.oltp.workload import OltpPartial
from repro.specweb.metrics import MetricsPartial
from tests.harness.configs import tiny_config


def iterations_equal(a, b):
    assert a.metrics == b.metrics
    assert (a.mis, a.kns, a.kcp) == (b.mis, b.kns, b.kcp)
    assert a.faults_injected == b.faults_injected
    assert a.runtime_stats == b.runtime_stats


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
def test_plan_shards_is_contiguous_and_complete():
    config = tiny_config()
    faultload = WebServerExperiment(config).prepared_faultload()
    shards = plan_shards(faultload, 3)
    assert [s.first_slot for s in shards] == list(
        range(0, len(faultload), 3)
    )
    flattened = [loc for shard in shards for loc in shard.locations]
    assert [l.fault_id for l in flattened] == [
        l.fault_id for l in faultload
    ]


def test_plan_shards_independent_of_worker_count():
    config = tiny_config()
    faultload = WebServerExperiment(config).prepared_faultload()
    # The plan has no worker parameter at all — assert the shape is a
    # pure function of (faultload, slots_per_shard).
    a = plan_shards(faultload, 4)
    b = plan_shards(faultload, 4)
    assert a == b
    with pytest.raises(ValueError):
        plan_shards(faultload, 0)


def test_shard_outcome_roundtrips_through_json():
    outcome = ShardOutcome(
        shard_index=3, first_slot=9, num_slots=3,
        partial=MetricsPartial(total_ops=10, total_errors=1,
                               latency_sum=1.25, latency_count=9,
                               conforming_sum=4.0, group_count=1,
                               measured_seconds=12.0),
        mis=1, kns=0, kcp=2, faults_injected=3,
        runtime_stats={"restarts": 2},
        incidents=[{"kind": "KCP", "t": 31.5}],
        contaminated_slots=[{"fault_id": "f", "kinds": ["heap-leak"],
                             "rebooted": True, "slot": 10,
                             "violations": 1}],
        reboots=[{"after_slot": 10, "verified": True}],
        integrity_enabled=True,
        activations=[{"fault_id": "f", "first_hit": 0.25, "hits": 4,
                      "slot": 10, "truncated": False}],
        faults_activated=1, slots_truncated=1, truncated_seconds=1.5,
        activation_enabled=True,
        epochs_booted=1, epochs_restored=1, pristine_restarts=2,
    )
    restored = ShardOutcome.from_dict(
        json.loads(json.dumps(outcome.to_dict())), MetricsPartial
    )
    assert restored == outcome


def test_merge_outcomes_ignores_arrival_order():
    def outcome(index, ops):
        return ShardOutcome(
            shard_index=index, first_slot=index * 2, num_slots=2,
            partial=MetricsPartial(total_ops=ops, total_errors=0,
                                   latency_sum=0.1 * ops,
                                   latency_count=ops,
                                   conforming_sum=1.0, group_count=1,
                                   measured_seconds=8.0),
            mis=index, kns=0, kcp=0, faults_injected=2,
            runtime_stats={"ops": ops, "crashes": index},
            # Insertion key order, as a live shard produces it.
            activations=[{"slot": index * 2, "fault_id": f"f{index}",
                          "hits": index, "first_hit": None,
                          "truncated": index == 1}],
            faults_activated=min(index, 1), slots_truncated=int(index == 1),
            truncated_seconds=0.1 * index,
            activation_enabled=True, integrity_enabled=index == 2,
            contaminated_slots=(
                [{"slot": 4, "fault_id": "f2", "kinds": ["heap-leak"],
                  "violations": 1, "rebooted": True}]
                if index == 2 else []
            ),
            epochs_booted=1, epochs_restored=index,
        )

    outcomes = [outcome(2, 30), outcome(0, 10), outcome(1, 20)]
    config = tiny_config()
    merged = merge_outcomes(outcomes, iteration=1, config=config)
    shuffled = merge_outcomes(list(reversed(outcomes)), iteration=1,
                              config=config)
    assert merged == shuffled
    assert merged.metrics.total_ops == 60
    assert merged.mis == 3
    assert list(merged.runtime_stats.items()) == [("crashes", 3),
                                                  ("ops", 60)]
    assert [record["slot"] for record in merged.activations] == [0, 2, 4]
    assert list(merged.activations[0]) == sorted(merged.activations[0])
    assert list(merged.contaminated_slots[0]) == sorted(
        merged.contaminated_slots[0])
    assert (merged.faults_activated, merged.slots_truncated) == (2, 1)
    assert merged.truncated_seconds == 0.3
    assert merged.activation_enabled and merged.integrity_enabled
    assert (merged.epochs_booted, merged.epochs_restored) == (3, 3)


@pytest.mark.parametrize("kind, name", [
    (MetricsPartial, "latency_sum"),
    (MetricsPartial, "conforming_sum"),
    (MetricsPartial, "measured_seconds"),
    (OltpPartial, "latency_sum"),
    (OltpPartial, "measured_seconds"),
    (SlotTally, "truncated_seconds"),
])
def test_merges_add_floats_left_to_right(kind, name):
    """Every interpreter merges accounting floats the same way: left to
    right, without the compensated summation ``sum()`` does on floats
    from Python 3.12 on (which would read 1.0 here)."""
    parts = [kind(**{name: value}) for value in (1e16, 1.0, -1e16)]
    assert getattr(kind.merge(parts), name) == 0.0


# ----------------------------------------------------------------------
# Mutant warm-up and merge (worker-count parity: test_parity.py)
# ----------------------------------------------------------------------
def test_campaign_warmup_compiles_sampled_faultload():
    from repro.gswfit.cache import clear_mutant_cache

    clear_mutant_cache()
    try:
        config = tiny_config(iterations=1)
        campaign = ParallelCampaign(config, workers=1)
        campaign.run(include_baseline=False, include_profile_mode=False)
        stats = campaign.warmup_stats
        assert stats is not None
        assert stats["slots"] == config.fault_sample
        assert stats["compiled"] + stats["cached"] + stats["failed"] == (
            stats["slots"]
        )
    finally:
        clear_mutant_cache()


def test_campaign_merge_matches_manual_shard_runs():
    config = tiny_config(iterations=1)
    campaign = ParallelCampaign(config, workers=1)
    faultload = campaign.prepared_faultload()
    shards = plan_shards(faultload, config.slots_per_shard)
    outcomes = [run_shard(config, 1, shard) for shard in shards]
    manual = merge_outcomes(outcomes, 1, config)
    result = ParallelCampaign(config, workers=1).run(
        include_baseline=False, include_profile_mode=False
    )
    iterations_equal(result.iterations[0], manual)


# ----------------------------------------------------------------------
# Checkpoint/resume
# ----------------------------------------------------------------------
def test_campaign_resume_after_kill_matches_uninterrupted(tmp_path):
    config = tiny_config(iterations=2)
    full_journal = tmp_path / "full.jsonl"
    full = ParallelCampaign(
        config, workers=1, journal_path=full_journal
    ).run()
    # Simulate a kill after iteration 1: drop every iteration-2 shard
    # record from the journal, then resume.
    survivors = []
    for line in full_journal.read_text().splitlines():
        entry = json.loads(line)
        if entry.get("kind") == "shard" and entry["iteration"] > 1:
            continue
        survivors.append(line)
    cut_journal = tmp_path / "cut.jsonl"
    cut_journal.write_text("\n".join(survivors) + "\n")
    resumed = ParallelCampaign(
        config, workers=1, journal_path=cut_journal, resume=True
    ).run()
    assert resumed.baseline == full.baseline
    assert resumed.profile_mode == full.profile_mode
    assert len(resumed.iterations) == len(full.iterations) == 2
    for a, b in zip(full.iterations, resumed.iterations):
        iterations_equal(a, b)


def test_campaign_journal_skips_completed_units(tmp_path, monkeypatch):
    config = tiny_config(iterations=1)
    journal_path = tmp_path / "campaign.jsonl"
    ParallelCampaign(config, workers=1, journal_path=journal_path).run(
        include_baseline=False, include_profile_mode=False
    )
    # On resume every shard is already journalled: the engine must not
    # run a single new shard.
    def boom(*args, **kwargs):
        raise AssertionError("resume re-ran a completed shard")

    monkeypatch.setattr("repro.harness.campaign.run_shard", boom)
    resumed = ParallelCampaign(
        config, workers=1, journal_path=journal_path, resume=True
    ).run(include_baseline=False, include_profile_mode=False)
    assert len(resumed.iterations) == 1


def test_campaign_resume_rejects_foreign_journal(tmp_path):
    config = tiny_config(iterations=1)
    journal_path = tmp_path / "campaign.jsonl"
    ParallelCampaign(config, workers=1, journal_path=journal_path).run(
        include_baseline=False, include_profile_mode=False
    )
    other = tiny_config(iterations=1, fault_sample=6)
    with pytest.raises(ValueError, match="different campaign"):
        ParallelCampaign(
            other, workers=1, journal_path=journal_path, resume=True
        ).run(include_baseline=False, include_profile_mode=False)


def test_campaign_key_sensitive_to_config_and_faultload():
    config = tiny_config()
    faultload = WebServerExperiment(config).prepared_faultload()
    key = campaign_key(config, faultload)
    assert key == campaign_key(config, faultload)
    other = tiny_config()
    other.seed = config.seed + 1
    assert campaign_key(other, faultload) != key


def test_journal_load_tolerates_missing_file(tmp_path):
    journal = CampaignJournal.load(tmp_path / "nope.jsonl", ServerMachine)
    assert journal.header is None
    assert journal.phases == {}
    assert journal.shards == {}


def test_journal_load_drops_truncated_final_line(tmp_path):
    """A hard kill mid-append leaves a torn last line; load must treat
    it as an incomplete unit (rerun on resume), not corruption."""
    config = tiny_config(iterations=1)
    journal_path = tmp_path / "campaign.jsonl"
    ParallelCampaign(config, workers=1, journal_path=journal_path).run(
        include_baseline=False, include_profile_mode=False
    )
    intact = CampaignJournal.load(journal_path, ServerMachine)
    assert intact.shards
    whole = journal_path.read_text()
    lines = whole.rstrip("\n").split("\n")
    torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
    journal_path.write_text(torn)
    journal = CampaignJournal.load(journal_path, ServerMachine)
    assert journal.header is not None
    assert len(journal.shards) == len(intact.shards) - 1


def test_journal_load_raises_on_mid_file_corruption(tmp_path):
    journal_path = tmp_path / "campaign.jsonl"
    journal_path.write_text(
        '{"kind": "header", "version": %d, "campaign_key": "k"}\n'
        '{"kind": "shard", "iteration": 1, "sh\n'
        '{"kind": "phase", "phase": "baseline", "metrics": {}}\n'
        % JOURNAL_VERSION
    )
    with pytest.raises(json.JSONDecodeError):
        CampaignJournal.load(journal_path, ServerMachine)


def test_campaign_resumes_after_hard_kill_with_torn_journal(tmp_path):
    """End to end: truncate the journal mid-line, resume, and land on
    the uninterrupted result."""
    config = tiny_config(iterations=1)
    full_journal = tmp_path / "full.jsonl"
    full = ParallelCampaign(
        config, workers=1, journal_path=full_journal
    ).run(include_baseline=False, include_profile_mode=False)
    torn_journal = tmp_path / "torn.jsonl"
    content = full_journal.read_text()
    torn_journal.write_text(content[: int(len(content) * 0.8)])
    resumed = ParallelCampaign(
        config, workers=1, journal_path=torn_journal, resume=True
    ).run(include_baseline=False, include_profile_mode=False)
    assert len(resumed.iterations) == len(full.iterations) == 1
    iterations_equal(full.iterations[0], resumed.iterations[0])


def test_resumes_after_a_torn_final_record_keep_the_journal_whole(
        tmp_path):
    """A kill mid-append tears the last shard record.  Each resume must
    match the uninterrupted digest and leave every line readable: the
    rerun shard's record starts on a fresh line instead of being glued
    onto the torn prefix (lost, and after one more resume buried in the
    interior, where loading fails)."""
    config = tiny_config(slots_per_shard=2)
    journal_path = tmp_path / "campaign.jsonl"
    campaign = ParallelCampaign(config, workers=1, journal_path=journal_path)
    campaign.run(include_baseline=False, include_profile_mode=False)
    lines = journal_path.read_text().splitlines()
    assert [json.loads(line)["kind"] for line in lines] == (
        ["header"] + ["shard"] * 4
    )
    torn = lines[-1][: len(lines[-1]) // 2]
    journal_path.write_text("\n".join(lines[:-1]) + "\n" + torn)
    for _resume in range(3):
        resumed = ParallelCampaign(
            config, workers=1, journal_path=journal_path, resume=True
        )
        resumed.run(include_baseline=False, include_profile_mode=False)
        assert (resumed.manifest.metrics_digest
                == campaign.manifest.metrics_digest)
    # Every line is a record: the rerun shard's replaced the torn one.
    lines = journal_path.read_text().splitlines()
    assert [json.loads(line)["kind"] for line in lines] == (
        ["header"] + ["shard"] * 4
    )
    assert len(CampaignJournal.load(journal_path, ServerMachine).shards) == 4


# ----------------------------------------------------------------------
# Integration with the serial experiment
# ----------------------------------------------------------------------
def test_campaign_uses_prepared_faultload_once():
    """The campaign's shards must cover exactly the prepared slots."""
    config = tiny_config()
    campaign = ParallelCampaign(config, workers=1)
    prepared = campaign.prepared_faultload()
    assert prepared.prepared
    again = campaign.prepared_faultload(prepared)
    assert again is prepared  # no re-sampling, no name mangling
    shards = plan_shards(prepared, config.slots_per_shard)
    assert sum(len(s) for s in shards) == len(prepared)


def test_campaign_result_feeds_reporting():
    from repro.harness.metrics import DependabilityMetrics
    from repro.reporting.report import table5_results

    config = tiny_config(iterations=1)
    result = ParallelCampaign(config, workers=2).run()
    rendered = table5_results({("W2k (sim)", "apache"): result}).render()
    assert "apache" in rendered
    metrics = DependabilityMetrics.from_results(result)
    assert metrics.admf >= 0
