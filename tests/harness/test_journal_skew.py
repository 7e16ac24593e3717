"""Tier-1 tests: journal and fragment version skew.

A journal written by an older (or newer) build of this repo must never
crash a resume, and must never be merged either — half-schema outcomes
would silently change the digest.  The correct behaviour is always the
same: warn, drop the unreadable units, rerun them.  Reruns are
deterministic, so the healed campaign's digest equals an uninterrupted
run's.
"""

import json

import pytest

from repro.harness.campaign import (
    JOURNAL_VERSION,
    CampaignJournal,
    ParallelCampaign,
)
from tests.harness.configs import tiny_config


def _run(tmp_path, name, resume=False):
    campaign = ParallelCampaign(
        tiny_config(), workers=1,
        journal_path=tmp_path / name / "journal.jsonl", resume=resume,
    )
    campaign.run(include_baseline=False, include_profile_mode=False)
    return campaign


def _rewrite_header_version(journal_path, version):
    lines = journal_path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header"
    header["version"] = version
    lines[0] = json.dumps(header, sort_keys=True)
    journal_path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("skewed_version", [4, JOURNAL_VERSION + 1],
                         ids=["older", "newer"])
def test_load_drops_units_of_skewed_journal(tmp_path, skewed_version):
    campaign = _run(tmp_path, "seed")
    journal_path = campaign.journal_path
    assert CampaignJournal.load(journal_path).shards
    _rewrite_header_version(journal_path, skewed_version)
    with pytest.warns(RuntimeWarning, match="will rerun"):
        journal = CampaignJournal.load(journal_path)
    assert journal.header is not None  # kept for diagnostics
    assert journal.shards == {}        # nothing replayed
    assert journal.phases == {}


def test_resume_over_skewed_journal_warns_reruns_and_matches(tmp_path):
    """The end-to-end property: resume over a pre-v5 journal warns,
    reruns everything, and lands on the uninterrupted digest."""
    reference = _run(tmp_path, "reference")
    skewed = _run(tmp_path, "skewed")
    _rewrite_header_version(skewed.journal_path, JOURNAL_VERSION - 1)
    with pytest.warns(RuntimeWarning, match="will rerun"):
        resumed = _run(tmp_path, "skewed", resume=True)
    assert (resumed.manifest.metrics_digest
            == reference.manifest.metrics_digest)
    # The healed journal is a current-version one again.
    journal = CampaignJournal.load(resumed.journal_path)
    assert journal.header["version"] == JOURNAL_VERSION
    assert journal.shards


def test_resume_still_rejects_foreign_campaign(tmp_path):
    """Version tolerance must not weaken the key check: a journal from
    a *different* campaign stays a hard error."""
    campaign = _run(tmp_path, "seed")
    lines = campaign.journal_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["campaign_key"] = "0" * 64
    lines[0] = json.dumps(header, sort_keys=True)
    campaign.journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="different campaign"):
        _run(tmp_path, "seed", resume=True)


def test_unreadable_shard_record_reruns_that_unit(tmp_path):
    """A single fragment today's schema cannot rebuild (e.g. written by
    a skewed fabric worker) drops only that unit; intact neighbours
    still replay."""
    campaign = _run(tmp_path, "seed")
    journal_path = campaign.journal_path
    intact = CampaignJournal.load(journal_path)
    assert len(intact.shards) >= 2
    lines = journal_path.read_text().splitlines()
    mangled = []
    broke = False
    for line in lines:
        entry = json.loads(line)
        if not broke and entry.get("kind") == "shard":
            # An unknown-schema fragment: the partial is unreadable.
            entry["outcome"]["partial"] = {"schema": "from-the-future"}
            line = json.dumps(entry, sort_keys=True)
            broke = True
        mangled.append(line)
    journal_path.write_text("\n".join(mangled) + "\n")
    with pytest.warns(RuntimeWarning, match="unreadable shard record"):
        journal = CampaignJournal.load(journal_path)
    assert len(journal.shards) == len(intact.shards) - 1
    # And the campaign heals it on resume, landing on the same digest.
    resumed = _run(tmp_path, "seed", resume=True)
    reference = _run(tmp_path, "reference")
    assert (resumed.manifest.metrics_digest
            == reference.manifest.metrics_digest)
