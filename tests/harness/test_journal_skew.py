"""Tier-1 tests: journal version skew and unreadable records.

A journal written by an older (or newer) build of this repo, or one
holding a phase or shard record the campaign's machine cannot rebuild
(another target's, or another schema's), is never merged: half-schema
outcomes would silently change the digest.  Resuming over one is an
error that names the journal; the fix is to rerun without
``--resume``.
"""

import json
import re

import pytest

from repro.harness.campaign import (
    JOURNAL_VERSION,
    CampaignJournal,
    JournalMismatch,
    ParallelCampaign,
)
from repro.harness.machine import ServerMachine
from tests.harness.configs import tiny_config


def _run(tmp_path, name, resume=False, baseline=False, **overrides):
    campaign = ParallelCampaign(
        tiny_config(**overrides), workers=1,
        journal_path=tmp_path / name / "journal.jsonl", resume=resume,
    )
    campaign.run(include_baseline=baseline, include_profile_mode=False)
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
def test_skewed_journal_is_an_error(tmp_path, skewed_version):
    campaign = _run(tmp_path, "seed")
    journal_path = campaign.journal_path
    _rewrite_header_version(journal_path, skewed_version)
    before = journal_path.read_text()
    message = re.escape(
        f"journal {journal_path} is version {skewed_version}, "
        f"current {JOURNAL_VERSION}: rerun without --resume"
    )
    with pytest.raises(JournalMismatch, match=message):
        CampaignJournal.load(journal_path, ServerMachine)
    with pytest.raises(JournalMismatch, match=message):
        _run(tmp_path, "seed", resume=True)
    # Nothing deleted the journal or appended to it.
    assert journal_path.read_text() == before


def test_resume_still_rejects_foreign_campaign(tmp_path):
    """A current-version journal from a *different* campaign is an
    error too."""
    campaign = _run(tmp_path, "seed")
    lines = campaign.journal_path.read_text().splitlines()
    header = json.loads(lines[0])
    header["campaign_key"] = "0" * 64
    lines[0] = json.dumps(header, sort_keys=True)
    campaign.journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="different campaign"):
        _run(tmp_path, "seed", resume=True)


def test_resume_with_another_shard_size_is_another_campaign(tmp_path):
    """The shard size sets the shard plan and every shard seed, so a
    journal of 2-slot shards must not resume a campaign of 4-slot ones
    (merging them injected 4 of 8 slots)."""
    journal_path = tmp_path / "journal.jsonl"

    def run(slots_per_shard, resume):
        ParallelCampaign(
            tiny_config(slots_per_shard=slots_per_shard), workers=1,
            journal_path=journal_path, resume=resume,
        ).run(include_baseline=False, include_profile_mode=False)

    run(2, resume=False)
    before = journal_path.read_text()
    with pytest.raises(JournalMismatch, match="different campaign"):
        run(4, resume=True)
    assert journal_path.read_text() == before


def test_unreadable_shard_record_is_an_error(tmp_path):
    """A fragment today's schema cannot rebuild (e.g. one another
    version of the program wrote) is an error naming its line."""
    campaign = _run(tmp_path, "seed")
    journal_path = campaign.journal_path
    lines = journal_path.read_text().splitlines()
    broken = None
    for lineno, line in enumerate(lines, start=1):
        entry = json.loads(line)
        if entry.get("kind") == "shard":
            # An unknown-schema fragment: the partial is unreadable.
            entry["outcome"]["partial"] = {"schema": "from-the-future"}
            lines[lineno - 1] = json.dumps(entry, sort_keys=True)
            broken = lineno
            break
    assert broken is not None
    journal_path.write_text("\n".join(lines) + "\n")
    message = re.escape(f"journal {journal_path} line {broken}: ")
    with pytest.raises(JournalMismatch, match=message):
        CampaignJournal.load(journal_path, ServerMachine)
    with pytest.raises(JournalMismatch, match=message):
        _run(tmp_path, "seed", resume=True)


def test_unreadable_phase_record_is_an_error(tmp_path):
    """A phase record the machine's metrics type cannot rebuild (here,
    one foreign key) is an error naming its line, not a traceback."""
    campaign = _run(tmp_path, "seed", baseline=True)
    journal_path = campaign.journal_path
    lines = journal_path.read_text().splitlines()
    entry = json.loads(lines[1])
    assert entry["kind"] == "phase"
    entry["metrics"]["tps"] = 1.0
    lines[1] = json.dumps(entry, sort_keys=True)
    journal_path.write_text("\n".join(lines) + "\n")
    before = journal_path.read_text()
    message = re.escape(
        f"journal {journal_path} line 2: unreadable phase record"
    )
    with pytest.raises(JournalMismatch, match=message):
        CampaignJournal.load(journal_path, ServerMachine)
    with pytest.raises(JournalMismatch, match=message):
        _run(tmp_path, "seed", resume=True, baseline=True)
    assert journal_path.read_text() == before


def test_engine_journal_does_not_resume_a_web_campaign(tmp_path):
    """Records decode through the campaign's machine: an OLTP engine's
    baseline is unreadable as a web server's."""
    campaign = _run(tmp_path, "seed", baseline=True, server_name="walnut")
    message = re.escape(
        f"journal {campaign.journal_path} line 2: unreadable phase record"
    )
    with pytest.raises(JournalMismatch, match=message):
        _run(tmp_path, "seed", resume=True, baseline=True)
