"""Tier-1 tests for the shared JSONL torn-tail reader — the small
robustness primitive under the campaign journal and the telemetry
reader.
"""

import json

import pytest

from repro.harness.jsonl import drop_torn_tail, read_jsonl


# ----------------------------------------------------------------------
# read_jsonl: the one torn-tail policy everything shares
# ----------------------------------------------------------------------
def test_read_jsonl_parses_with_line_numbers(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n\n{"b": 2}\n')
    assert read_jsonl(path) == [(1, {"a": 1}), (2, {"b": 2})]


def test_read_jsonl_missing_file_is_empty(tmp_path):
    assert read_jsonl(tmp_path / "absent.jsonl") == []


def test_read_jsonl_drops_torn_final_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n{"c": ')
    assert read_jsonl(path) == [(1, {"a": 1}), (2, {"b": 2})]


def test_read_jsonl_torn_interior_line_raises(tmp_path):
    # A torn line *followed by* valid records is not a crash artifact —
    # it is corruption, and silently skipping it would drop data.
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": \n{"c": 3}\n')
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(path)


@pytest.mark.parametrize(("content", "expected"), [
    ('{"a": 1}\n{"b": 2', '{"a": 1}\n'),
    ('{"a": 1}\n{"b": 2}', '{"a": 1}\n{"b": 2}\n'),
    ('{"a": 1}\n{"b": 2}\n', '{"a": 1}\n{"b": 2}\n'),
    ('{"a"', ''),
    ('', ''),
], ids=["torn", "unterminated", "whole", "only-torn", "empty"])
def test_drop_torn_tail_leaves_a_fresh_line(tmp_path, content, expected):
    """The line read_jsonl drops is cut; a whole final record that lost
    only its newline gets it back; anything else is left as it is."""
    path = tmp_path / "log.jsonl"
    path.write_text(content)
    drop_torn_tail(path)
    assert path.read_text() == expected
    drop_torn_tail(tmp_path / "absent.jsonl")
    assert not (tmp_path / "absent.jsonl").exists()


def test_campaign_journal_shares_torn_tail_policy(tmp_path):
    """Regression for the shared reader: CampaignJournal.load must
    tolerate a torn final line (rerunning that unit) exactly as the
    telemetry reader does."""
    from repro.harness.campaign import CampaignJournal

    path = tmp_path / "journal.jsonl"
    journal = CampaignJournal(path)
    journal.write_header("key", num_shards=2, iterations=1)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "shard", "iteration": 1, "sha')
    loaded = CampaignJournal.load(path)
    assert loaded.header["campaign_key"] == "key"
    assert loaded.shards == {}  # torn record dropped → unit reruns

