"""Tier-1 tests: the fault-activation layer (DESIGN.md §11).

The contract under test, end to end:

* mutants compiled without a tracker are byte-identical to the
  pre-activation harness (zero cost when untraced), and the probed
  variant differs only by the planted entry probe;
* the ``__gswfit_activation__`` hook lives in the FIT module for exactly
  the lifetime of an injection (refcounted across overlapping faults);
* a real slot walk observes activations through the probe;
* adaptive scheduling only ever truncates slots whose fault never
  activated.

Activation records and digests staying identical across worker counts,
backends and resumes, with and without ``--adaptive-slots``, on both OS
builds, are rows of ``test_parity.py``.
"""

from repro.gswfit import ACTIVATION_HOOK, ActivationTracker
from repro.gswfit.injector import FaultInjector
from repro.gswfit.mutator import build_mutant, resolve_module
from repro.gswfit.scanner import scan_build
from repro.harness.campaign import (
    ParallelCampaign,
    derive_activation_deadlines,
)
from repro.harness.experiment import WebServerExperiment
from repro.ossim.builds import NT50
from tests.harness.configs import tiny_config


# ----------------------------------------------------------------------
# Probe and hook mechanics
# ----------------------------------------------------------------------
def test_unprobed_mutant_identical_probed_differs():
    location = scan_build(NT50)[0]
    _, plain_a = build_mutant(location)
    _, plain_b = build_mutant(location)
    _, probed = build_mutant(location, probed=True)
    assert plain_a.co_code == plain_b.co_code
    assert probed.co_code != plain_a.co_code
    # The probe references the hook by name; the plain mutant must not.
    assert ACTIVATION_HOOK in probed.co_names
    assert ACTIVATION_HOOK not in plain_a.co_names


def test_hook_lifetime_tracks_injections():
    faultload = scan_build(NT50)
    first = faultload[0]
    # A second fault in the same module exercises the refcount.
    second = next(
        loc for loc in faultload
        if loc.module == first.module and loc.function != first.function
    )
    module = resolve_module(first.module)
    tracker = ActivationTracker(clock=lambda: 0.0)
    injector = FaultInjector(activation_tracker=tracker)

    assert not hasattr(module, ACTIVATION_HOOK)
    injector.inject(first)
    assert getattr(module, ACTIVATION_HOOK) == tracker.record
    injector.inject(second)
    injector.restore(first)
    assert getattr(module, ACTIVATION_HOOK) == tracker.record
    injector.restore(second)
    assert not hasattr(module, ACTIVATION_HOOK)

    # Without a tracker, no hook is ever published.
    plain = FaultInjector()
    plain.inject(first)
    assert not hasattr(module, ACTIVATION_HOOK)
    plain.restore_all()


def test_tracker_records_first_hit_once():
    times = iter([3.25, 4.5, 9.0])
    tracker = ActivationTracker(clock=lambda: next(times))
    tracker.begin("f1")
    assert tracker.hits("f1") == 0
    tracker.record("f1")
    tracker.record("f1")
    record = tracker.take("f1")
    assert record.hits == 2
    assert record.first_hit == 3.25
    assert tracker.take("f1") is None
    # Unopened fault ids are recorded defensively, never raised on.
    tracker.record("stray")
    assert tracker.hits("stray") == 1


def test_slot_walk_observes_activations():
    config = tiny_config(fault_sample=6)
    experiment = WebServerExperiment(config)
    faultload = experiment.prepared_faultload()
    result = experiment.run_slots(faultload, iteration=1)
    assert result.activation_enabled
    assert len(result.activations) == result.faults_injected
    assert result.faults_activated > 0
    for record in result.activations:
        assert record["hits"] >= 0
        if record["hits"]:
            assert 0.0 <= record["first_hit"] <= config.rules.slot_seconds
        else:
            assert record["first_hit"] is None


# ----------------------------------------------------------------------
# Adaptive scheduling semantics
# ----------------------------------------------------------------------
def test_deadline_table_derived_from_profile():
    config = tiny_config()
    config.adaptive_slots = True
    deadlines = derive_activation_deadlines(config)
    assert deadlines, "profiling trace observed no functions"
    for function, deadline in deadlines.items():
        assert 0.0 < deadline <= config.rules.slot_seconds, function


def test_adaptive_truncates_only_inactive_slots():
    config = tiny_config(fault_sample=8)
    config.adaptive_slots = True
    # A degenerate deadline table: every function's window has already
    # passed at the first instant, so every slot whose fault has not
    # activated immediately is truncated — deterministically exercising
    # the truncation path regardless of which faults were sampled.
    config.activation_deadlines = {
        function: 1e-6 for function in scan_build(NT50).functions()
    }
    campaign = ParallelCampaign(config, workers=1)
    result = campaign.run(
        include_baseline=False, include_profile_mode=False
    )
    iteration = result.iterations[0]
    assert iteration.slots_truncated > 0
    assert iteration.truncated_seconds > 0.0
    truncated = 0
    for record in iteration.activations:
        if record["truncated"]:
            truncated += 1
            assert record["hits"] == 0, (
                "an activated slot must never be truncated"
            )
    assert truncated == iteration.slots_truncated
