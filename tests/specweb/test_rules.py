"""Tests for the benchmark run rules."""

from repro.specweb.rules import RunRules


def test_paper_preset_matches_specweb99():
    rules = RunRules.paper()
    assert rules.warmup_seconds == 1200.0
    assert rules.rampup_seconds == 300.0
    assert rules.rampdown_seconds == 300.0
    assert rules.iterations == 3
    assert rules.slot_seconds == 10.0  # the paper's injection cadence


def test_scaled_preserves_structure():
    rules = RunRules.scaled()
    assert rules.iterations == RunRules.paper().iterations
    assert rules.slot_seconds == RunRules.paper().slot_seconds
    assert rules.warmup_seconds < RunRules.paper().warmup_seconds


def test_rules_are_frozen():
    import dataclasses

    import pytest

    rules = RunRules()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rules.slot_seconds = 1.0
