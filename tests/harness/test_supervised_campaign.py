"""Tier-1 tests: the supervised campaign end to end.

The acceptance property from the issue: a campaign with an injected
worker crash and one hung shard completes with ``degraded=True``,
quarantines only the offending slots, lists them in its run manifest —
and the merged metrics of the surviving slots are identical to a serial
run over the same slots.
"""

import time
from functools import partial

from repro.harness.campaign import (
    ParallelCampaign,
    merge_outcomes,
    plan_shards,
    run_shard,
)
from repro.harness.telemetry import RunManifest, read_telemetry
from tests.harness.configs import tiny_config


def _sabotaged_run_shard(config, iteration, plan, marker_dir, shard):
    """Worker entry point with scripted failures per shard index.

    ``plan`` maps a shard index to "crash" / "hang" / "crash_once";
    anything else runs the real shard.  Top-level so it pickles into
    the worker pool.
    """
    behaviour = plan.get(shard.index)
    if behaviour == "crash_once" and marker_dir is not None:
        from pathlib import Path

        marker = Path(marker_dir) / f"tried-{shard.index}"
        if marker.exists():
            behaviour = None
        else:
            marker.write_text("tried")
            behaviour = "crash"
    if behaviour == "crash":
        raise RuntimeError(f"sabotaged shard {shard.index}")
    if behaviour == "hang":
        time.sleep(60.0)
    return run_shard(config, iteration, shard)


class SabotagedCampaign(ParallelCampaign):
    """A campaign whose worker task misbehaves on scripted shards."""

    def __init__(self, *args, plan=None, marker_dir=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.plan = dict(plan or {})
        self.marker_dir = marker_dir

    def _shard_task(self, iteration):
        return partial(
            _sabotaged_run_shard, self.config, iteration, self.plan,
            str(self.marker_dir) if self.marker_dir else None,
        )


def iterations_equal(a, b):
    assert a.metrics == b.metrics
    assert (a.mis, a.kns, a.kcp) == (b.mis, b.kns, b.kcp)
    assert a.faults_injected == b.faults_injected
    assert a.runtime_stats == b.runtime_stats
    assert a.incidents == b.incidents


# ----------------------------------------------------------------------
# The acceptance scenario
# ----------------------------------------------------------------------
def test_crash_and_hang_complete_degraded_with_exact_quarantine(tmp_path):
    config = tiny_config(slots_per_shard=2)
    campaign = SabotagedCampaign(
        config, workers=2,
        plan={1: "crash", 2: "hang"},
        shard_timeout=3.0, max_retries=0,
        manifest_path=tmp_path / "run.manifest.json",
        telemetry_path=tmp_path / "telemetry.jsonl",
    )
    result = campaign.run(
        include_baseline=False, include_profile_mode=False
    )
    # The campaign completed (no exception) but is flagged degraded,
    # with exactly the sabotaged shards quarantined.
    assert result.degraded
    assert sorted(entry["shard_index"] for entry in result.quarantine) \
        == [1, 2]
    reasons = {
        entry["shard_index"]: entry["failures"][-1]
        for entry in result.quarantine
    }
    assert "crash" in reasons[1]
    assert "hang" in reasons[2]

    # The manifest lists the quarantined slots with their fault ids.
    manifest = RunManifest.load(tmp_path / "run.manifest.json")
    assert manifest.supervision["degraded"]
    quarantined = manifest.supervision["quarantined"]
    assert sorted(entry["shard_index"] for entry in quarantined) == [1, 2]
    faultload = campaign.prepared_faultload()
    shards = plan_shards(faultload, 2)
    for entry in quarantined:
        expected = [
            location.fault_id
            for location in shards[entry["shard_index"]].locations
        ]
        assert entry["fault_ids"] == expected

    # Surviving-slot metrics are identical to a serial run over the
    # same slots: quarantine removes slots, it never perturbs the rest.
    survivors = [
        shard for shard in shards if shard.index not in (1, 2)
    ]
    outcomes = [run_shard(config, 1, shard) for shard in survivors]
    serial = merge_outcomes(outcomes, 1, config)
    iterations_equal(result.iterations[0], serial)

    # Telemetry recorded the whole story.
    kinds = [event["event"]
             for event in read_telemetry(tmp_path / "telemetry.jsonl")]
    assert kinds.count("shard_quarantine") == 2
    assert "pool_rebuild" in kinds
    assert kinds[-1] == "campaign_end"


def test_transient_crash_retries_and_stays_bit_identical(tmp_path):
    config = tiny_config(slots_per_shard=2)
    clean = ParallelCampaign(config, workers=1)
    clean_result = clean.run(
        include_baseline=False, include_profile_mode=False
    )
    supervised = SabotagedCampaign(
        tiny_config(slots_per_shard=2), workers=2,
        plan={0: "crash_once"}, marker_dir=tmp_path,
        manifest_path=tmp_path / "run.manifest.json",
    )
    result = supervised.run(
        include_baseline=False, include_profile_mode=False
    )
    # One retry, zero quarantine, and the retried run is bit-identical
    # to an unsupervised serial campaign.
    assert not result.degraded
    assert supervised.manifest.supervision["retries"] >= 1
    iterations_equal(clean_result.iterations[0], result.iterations[0])
    assert (supervised.manifest.metrics_digest
            == clean.manifest.metrics_digest)


def test_manifest_and_telemetry_default_to_journal_siblings(tmp_path):
    journal = tmp_path / "campaign.jsonl"
    campaign = ParallelCampaign(
        tiny_config(), workers=1, journal_path=journal
    )
    campaign.run(include_baseline=False, include_profile_mode=False)
    assert (tmp_path / "campaign.manifest.json").exists()
    assert (tmp_path / "campaign.telemetry.jsonl").exists()
    manifest = RunManifest.load(tmp_path / "campaign.manifest.json")
    assert manifest.metrics_digest == campaign.manifest.metrics_digest
    assert any(key.startswith("iteration-")
               for key in manifest.phase_timings)


def test_quarantined_shards_are_not_journalled_and_resume_retries(
        tmp_path):
    """A quarantined shard's slots stay missing from the journal, so a
    resumed run (with the fault fixed) completes them and converges on
    the clean result."""
    config = tiny_config(slots_per_shard=2)
    journal = tmp_path / "campaign.jsonl"
    degraded = SabotagedCampaign(
        config, workers=2, plan={1: "crash"},
        max_retries=0, journal_path=journal,
    )
    first = degraded.run(
        include_baseline=False, include_profile_mode=False
    )
    assert first.degraded
    # Resume with a healthy task: only the quarantined shard reruns.
    healed = SabotagedCampaign(
        tiny_config(slots_per_shard=2), workers=2, plan={},
        journal_path=journal, resume=True,
    )
    second = healed.run(
        include_baseline=False, include_profile_mode=False
    )
    assert not second.degraded
    clean = ParallelCampaign(
        tiny_config(slots_per_shard=2), workers=1
    ).run(include_baseline=False, include_profile_mode=False)
    iterations_equal(second.iterations[0], clean.iterations[0])
