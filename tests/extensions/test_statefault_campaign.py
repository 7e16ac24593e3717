"""State-fault campaigns: the one slot walk, sharded and supervised.

A faultload of hardware or operator faults runs through
:class:`~repro.harness.campaign.ParallelCampaign` like a software one,
so its digest must hold across worker counts, a worker death and a
kill-and-resume, as the parity table demands of software campaigns.
"""

import pytest

from repro.extensions.statefaults import class_faultload
from repro.harness import campaign as campaign_module
from repro.harness.campaign import ParallelCampaign
from repro.harness.experiment import WebServerExperiment
from repro.harness.supervisor import CHAOS_KILL_ENV
from repro.harness.snapshot import snapshot_cache
from tests.harness.configs import passing_through, tiny_config
from tests.harness.test_parity import cut_journal


def operator_campaign(workers=1, journal=None, resume=False, **phases):
    """The manifest of a two-iteration operator-fault campaign in shards
    of two slots, run from an empty snapshot cache."""
    snapshot_cache().clear()
    config = tiny_config(iterations=2)
    config.slots_per_shard = 2
    campaign = ParallelCampaign(
        config, workers=workers, journal_path=journal, resume=resume,
    )
    campaign.run(
        faultload=class_faultload(
            config.os_codename, "operator", repetitions=2
        ),
        include_baseline=phases.get("baseline", False),
        include_profile_mode=phases.get("profile_mode", False),
    )
    return campaign.manifest


def test_state_fault_digest_holds_across_workers_death_and_resume(
        tmp_path, monkeypatch):
    base = operator_campaign()
    assert base.num_shards == 3
    assert base.integrity["enabled"]
    # No slot planted a probe: activation is not tracked, not 0%.
    assert not base.activation["enabled"]
    assert base.activation["activation_rate"] is None

    monkeypatch.setenv(CHAOS_KILL_ENV, "1")
    forked = operator_campaign(workers=2)
    assert forked.supervision["pool_rebuilds"] >= 1
    monkeypatch.delenv(CHAOS_KILL_ENV)

    journal = tmp_path / "journal.jsonl"
    operator_campaign(journal=journal)
    cut_journal(journal)
    resumed = operator_campaign(journal=journal, resume=True)

    for manifest in (forked, resumed):
        assert manifest.metrics_digest == base.metrics_digest
        assert not manifest.supervision["degraded"]


def test_state_fault_campaign_runs_its_default_phases():
    """Baseline and profile mode run for a state-fault campaign too:
    only G-SWFIT locations have mutants to warm or prepare."""
    manifest = operator_campaign(baseline=True, profile_mode=True)
    assert {"baseline", "profile_mode"} <= set(manifest.phase_timings)
    assert not manifest.supervision["degraded"]


def test_sequential_state_fault_campaign_is_refused_before_any_phase(
        tmp_path, monkeypatch):
    """Sequential mode stratifies by G-SWFIT fault type, which a state
    fault lacks: the campaign refuses it in one line, before it warms
    mutants and before the baseline or the journal exist."""
    ran = []
    monkeypatch.setattr(
        WebServerExperiment, "run_baseline",
        lambda self, *args, **kwargs: ran.append("baseline"))
    for name in ("warm_mutant_cache", "derive_activation_deadlines"):
        monkeypatch.setattr(
            campaign_module, name,
            passing_through(ran, name, getattr(campaign_module, name)))
    config = tiny_config()
    config.sequential = True
    config.slots_per_shard = 2
    journal = tmp_path / "journal.jsonl"
    campaign = ParallelCampaign(config, journal_path=journal)
    with pytest.raises(ValueError, match=(
            r"^sequential mode stratifies by G-SWFIT fault type, and "
            r"operator:mistaken-process-kill is a state fault$")):
        campaign.run(faultload=class_faultload(
            config.os_codename, "operator", repetitions=2))
    assert ran == []
    assert not journal.exists()
