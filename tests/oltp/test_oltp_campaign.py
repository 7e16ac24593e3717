"""OLTP campaigns: an engine on the one campaign engine.

A campaign journals and merges an engine's results through its
machine's result types (``OltpMetrics``, ``OltpPartial``), so an OLTP
digest must hold across worker counts, a worker death and a
kill-and-resume, as the parity table demands of web campaigns.  OLTP
stays out of that table: its variant factor includes sequential mode,
which OLTP cannot run.
"""

import pytest

from repro.harness import campaign as campaign_module
from repro.harness.campaign import ParallelCampaign, merge_outcomes
from repro.harness.experiment import WebServerExperiment
from repro.harness.snapshot import snapshot_cache
from repro.harness.supervisor import CHAOS_KILL_ENV
from repro.oltp import OltpPartial
from tests.harness.configs import passing_through, tiny_config
from tests.harness.test_parity import cut_journal


def walnut_campaign(workers=1, journal=None, resume=False):
    """The manifest of a two-iteration walnut campaign in shards of two
    slots, with its baseline, run from an empty snapshot cache."""
    snapshot_cache().clear()
    config = tiny_config(iterations=2, server_name="walnut")
    config.slots_per_shard = 2
    campaign = ParallelCampaign(
        config, workers=workers, journal_path=journal, resume=resume,
    )
    campaign.run(include_profile_mode=False)
    return campaign.manifest


def test_oltp_digest_holds_across_workers_death_and_resume(
        tmp_path, monkeypatch):
    base = walnut_campaign()
    assert base.num_shards == 4
    # OLTP walks are never audited (OltpMachine.audited), and their
    # G-SWFIT slots plant probes.
    assert base.integrity["enabled"] is False
    assert base.activation["enabled"]

    monkeypatch.setenv(CHAOS_KILL_ENV, "1")
    forked = walnut_campaign(workers=2)
    assert forked.supervision["pool_rebuilds"] >= 1
    monkeypatch.delenv(CHAOS_KILL_ENV)

    journal = tmp_path / "journal.jsonl"
    walnut_campaign(journal=journal)
    cut_journal(journal)
    assert '"kind": "phase"' in journal.read_text()
    resumed = walnut_campaign(journal=journal, resume=True)
    # The baseline was replayed from its OLTP phase record, not rerun.
    assert "baseline" not in resumed.phase_timings

    for manifest in (base, forked, resumed):
        assert manifest.metrics_digest == base.metrics_digest
        assert not manifest.supervision["degraded"]


def test_iteration_of_quarantined_shards_merges_to_engine_zeros():
    """The merge takes its partial type from the config's machine, not
    from a first outcome, so an iteration with no outcome left still
    reduces, to the engine's own measures."""
    merged = merge_outcomes([], 1, tiny_config(server_name="walnut"))
    assert merged.metrics == OltpPartial().to_metrics()
    assert merged.metrics.total_txns == 0


def test_walnut_digest_is_the_same_on_every_interpreter():
    """An OLTP digest, pinned: the merges add floats left to right, so
    every interpreter of the CI matrix reproduces it (Python 3.12's
    compensated ``sum()`` once moved the last bit of RTM)."""
    snapshot_cache().clear()
    config = tiny_config(server_name="walnut", iterations=1,
                         fault_sample=12, slots_per_shard=2)
    campaign = ParallelCampaign(config, workers=1)
    campaign.run(include_profile_mode=False)
    assert campaign.manifest.metrics_digest == (
        "94aaaf7e975bb32b1f1ce39cd987bb7838798d516d470d8ed6177b7b49bda1c7"
    )


def test_sequential_oltp_campaign_is_refused_before_any_phase(
        tmp_path, monkeypatch):
    """Sequential mode's stopping rule estimates SPECWeb measures, which
    an engine's results lack: the campaign refuses it in one line,
    before it profiles deadlines or warms mutants and before the
    baseline or the journal exist."""
    ran = []
    monkeypatch.setattr(
        WebServerExperiment, "run_baseline",
        lambda self, *args, **kwargs: ran.append("baseline"))
    for name in ("warm_mutant_cache", "derive_activation_deadlines"):
        monkeypatch.setattr(
            campaign_module, name,
            passing_through(ran, name, getattr(campaign_module, name)))
    config = tiny_config(server_name="walnut", fault_sample=24,
                         sequential=True, ci_target=0.5, slots_per_shard=2,
                         adaptive_slots=True)
    journal = tmp_path / "journal.jsonl"
    campaign = ParallelCampaign(config, workers=1, journal_path=journal)
    with pytest.raises(ValueError, match=(
            r"^sequential mode estimates SPECWeb measures, and walnut is "
            r"an OLTP engine$")):
        campaign.run(include_profile_mode=False)
    assert ran == []
    assert not journal.exists()
