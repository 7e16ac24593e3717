"""Tests for sequential statistical injection (tier-1).

Covers the estimator layer (streaming moments, interval half-widths,
the stopping rule), the stratified batch plan, the controller's
edge-case decisions (small strata, zero variance, ceilings, quarantine),
and resume reproducing the uninterrupted run's stopping decisions and
batch audit records.  Digest and stopping-schedule parity across worker
counts, backends and resumes are rows of ``test_parity.py``.
"""

import math
import statistics

import pytest

from repro.faults.types import iter_fault_types
from repro.harness.campaign import (
    CampaignJournal,
    CampaignShard,
    ParallelCampaign,
)
from repro.harness.experiment import WebServerExperiment
from repro.harness.metrics import (
    SEQUENTIAL_TRACKED_METRICS,
    StratumEstimator,
    StreamingEstimator,
    normal_quantile,
)
from repro.harness.sequential import (
    SequentialController,
    StratumPlan,
    batch_observation,
    plan_sequential_strata,
)
from repro.sim.rng import SeededRng
from repro.specweb.metrics import MetricsPartial
from tests.harness.configs import SEQUENTIAL, tiny_config


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def test_normal_quantile_matches_known_values():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-4)
    # Tail branch of the approximation.
    assert normal_quantile(0.001) == pytest.approx(-3.090232, abs=1e-4)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_streaming_estimator_matches_statistics_module():
    values = [3.1, 0.4, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3]
    estimator = StreamingEstimator()
    for value in values:
        estimator.add(value)
    assert estimator.count == len(values)
    assert estimator.mean == pytest.approx(statistics.fmean(values))
    assert estimator.variance == pytest.approx(
        statistics.variance(values)
    )
    assert estimator.sd == pytest.approx(statistics.stdev(values))


def test_streaming_estimator_undefined_below_two_points():
    estimator = StreamingEstimator()
    estimator.add(4.2)
    assert estimator.variance is None
    assert estimator.sd is None


def _observation(value):
    return {metric: value for metric in SEQUENTIAL_TRACKED_METRICS}


def test_stratum_estimator_single_batch_never_converges():
    estimator = StratumEstimator()
    estimator.observe(_observation(5.0))
    widths = estimator.half_widths()
    assert all(widths[m] is None for m in SEQUENTIAL_TRACKED_METRICS)
    assert not estimator.converged(ci_target=1000.0)


def test_stratum_estimator_zero_variance_converges_immediately():
    estimator = StratumEstimator()
    estimator.observe(_observation(5.0))
    estimator.observe(_observation(5.0))
    widths = estimator.half_widths()
    assert all(widths[m] == 0.0 for m in SEQUENTIAL_TRACKED_METRICS)
    assert estimator.converged(ci_target=0.01)


def test_stratum_estimator_normal_half_width_formula():
    estimator = StratumEstimator(confidence=0.95, bootstrap_below=2)
    values = [1.0, 2.0, 3.0, 4.0]
    for value in values:
        estimator.observe(_observation(value))
    expected = (
        normal_quantile(0.975) * statistics.stdev(values)
        / math.sqrt(len(values))
    )
    widths = estimator.half_widths()
    for metric in SEQUENTIAL_TRACKED_METRICS:
        assert widths[metric] == pytest.approx(expected)


def test_stratum_estimator_bootstrap_is_deterministic():
    def widths_with_seed():
        estimator = StratumEstimator()
        for value in (1.0, 4.0, 2.5, 3.5):
            estimator.observe(_observation(value))
        return estimator.half_widths(SeededRng(7, label="boot"))

    first = widths_with_seed()
    second = widths_with_seed()
    assert first == second
    # The bootstrap interval is finite and positive for varying data.
    assert all(first[m] > 0 for m in SEQUENTIAL_TRACKED_METRICS)


# ----------------------------------------------------------------------
# Stratified batch plan
# ----------------------------------------------------------------------
def test_strata_by_type_preserves_order_and_proportions():
    config = tiny_config(fault_sample=24)
    faultload = WebServerExperiment(config).prepared_faultload()
    strata = faultload.strata_by_type()
    counts = faultload.counts_by_type()
    # Table 1 order, no empty types, full coverage.
    type_order = [ft for ft in iter_fault_types() if counts[ft]]
    assert [fault_type for fault_type, _ in strata] == type_order
    assert sum(len(locs) for _, locs in strata) == len(faultload)
    for fault_type, locations in strata:
        assert len(locations) == counts[fault_type]
        assert all(loc.fault_type == fault_type for loc in locations)


def test_plan_sequential_strata_globally_unique_contiguous():
    config = tiny_config(fault_sample=24)
    faultload = WebServerExperiment(config).prepared_faultload()
    strata = plan_sequential_strata(faultload, batch_slots=2)
    batches = [batch for plan in strata for batch in plan.batches]
    assert [batch.index for batch in batches] == list(range(len(batches)))
    slot = 0
    for batch in batches:
        assert batch.first_slot == slot
        slot += len(batch.locations)
    assert slot == len(faultload)
    with pytest.raises(ValueError):
        plan_sequential_strata(faultload, batch_slots=0)


# ----------------------------------------------------------------------
# Controller decisions (synthetic outcomes)
# ----------------------------------------------------------------------
def _synthetic_outcome(batch, ops, errors, mis=0):
    from repro.harness.campaign import ShardOutcome
    return ShardOutcome(
        shard_index=batch.index,
        first_slot=batch.first_slot,
        num_slots=len(batch.locations),
        partial=MetricsPartial(
            total_ops=ops, total_errors=errors, latency_sum=1.0,
            latency_count=ops, conforming_sum=2.0, group_count=1,
            measured_seconds=8.0,
        ),
        mis=mis, kns=0, kcp=0,
        faults_injected=len(batch.locations),
        runtime_stats={},
    )


def _synthetic_plan(num_batches, batch_slots=2, position=0,
                    fault_type="MIA"):
    batches = tuple(
        CampaignShard(
            index=index,
            first_slot=index * batch_slots,
            locations=tuple(range(batch_slots)),
        )
        for index in range(num_batches)
    )
    return StratumPlan(
        position=position,
        fault_type=fault_type,
        first_slot=0,
        planned_slots=num_batches * batch_slots,
        batches=batches,
    )


def _drive(config, plan, outcome_for):
    """Run the controller loop to completion over synthetic outcomes."""
    controller = SequentialController(config, [plan])
    rounds = 0
    while True:
        round_batches = controller.next_round()
        if not round_batches:
            break
        rounds += 1
        assert rounds <= len(plan.batches) + 1, "controller looped"
        for state, batch in round_batches:
            controller.complete_batch(state, batch, outcome_for(batch))
    return controller


def test_stratum_smaller_than_min_slots_stops_exhausted():
    config = tiny_config(slots_per_shard=2,
                         sequential_min_slots=8)
    plan = _synthetic_plan(num_batches=2)  # 4 slots < min 8
    controller = _drive(
        config, plan, lambda batch: _synthetic_outcome(batch, 100, 5)
    )
    state = controller.states[0]
    assert state.stop_reason == "exhausted"
    assert state.executed_slots == 4


def test_zero_variance_stratum_stops_at_min_slots():
    config = tiny_config(ci_target=0.05, slots_per_shard=2,
                         sequential_min_slots=4)
    plan = _synthetic_plan(num_batches=50)
    controller = _drive(
        config, plan,
        lambda batch: _synthetic_outcome(batch, 100, 5),  # constant
    )
    state = controller.states[0]
    assert state.stop_reason == "confidence"
    # Stops exactly at the floor — two batches — not after 50.
    assert state.executed_slots == 4


def test_max_slots_ceiling_stops_unconverged_stratum():
    config = tiny_config(ci_target=1e-9, slots_per_shard=2,
                         sequential_min_slots=4,
                         sequential_max_slots=6)
    plan = _synthetic_plan(num_batches=50)
    noisy = iter(range(1, 1000))
    controller = _drive(
        config, plan,
        lambda batch: _synthetic_outcome(batch, 100, next(noisy)),
    )
    state = controller.states[0]
    assert state.stop_reason == "max-slots"
    assert state.executed_slots == 6


def test_quarantined_batch_stops_stratum():
    config = tiny_config(slots_per_shard=2,
                         sequential_min_slots=4)
    plan = _synthetic_plan(num_batches=10)

    def outcome_for(batch):
        if batch.index == 1:
            return None  # supervisor quarantined it
        return _synthetic_outcome(batch, 100, batch.index)

    controller = _drive(config, plan, outcome_for)
    state = controller.states[0]
    assert state.stop_reason == "quarantined"
    # The quarantined batch's slots are not counted as executed.
    assert state.executed_slots == 2


def test_controller_summary_shape():
    config = tiny_config(ci_target=0.05, slots_per_shard=2,
                         sequential_min_slots=4)
    plan = _synthetic_plan(num_batches=10)
    controller = _drive(
        config, plan, lambda batch: _synthetic_outcome(batch, 100, 5)
    )
    summary = controller.summary()
    assert summary["planned_slots"] == 20
    assert summary["executed_slots"] == 4
    assert summary["slots_skipped"] == 16
    assert summary["stopping_points"] == {"MIA": 4}
    assert summary["stop_reasons"] == {"MIA": "confidence"}
    (stratum,) = summary["strata"]
    assert len(stratum["trajectory"]) == 2
    # Half-widths serialize as numbers or null — never Infinity, which
    # the jq-based CI gates cannot parse.
    import json
    blob = json.dumps(summary)
    assert "Infinity" not in blob


def test_batch_observation_values():
    batch = CampaignShard(index=0, first_slot=0, locations=(1, 2, 3, 4))
    outcome = _synthetic_outcome(batch, ops=100, errors=5, mis=2)
    observation = batch_observation(outcome, num_connections=8)
    metrics = outcome.partial.to_metrics(8)
    assert observation["SPCf"] == metrics.spc
    assert observation["THRf"] == metrics.thr
    assert observation["RTMf"] == metrics.rtm_ms
    assert observation["ER%f"] == metrics.er_percent
    assert observation["ADMf"] == pytest.approx(2 / 4)


# ----------------------------------------------------------------------
# End to end: parity and resume
# ----------------------------------------------------------------------
def _run_sequential(config, tmp_path, name, workers=1, resume=False):
    campaign = ParallelCampaign(
        config, workers=workers,
        journal_path=tmp_path / name / "journal.jsonl", resume=resume,
    )
    result = campaign.run(
        include_baseline=False, include_profile_mode=False
    )
    return result, campaign.manifest


def test_sequential_resume_mid_batch_matches_uninterrupted(tmp_path):
    config = tiny_config(**SEQUENTIAL)
    full, full_manifest = _run_sequential(config, tmp_path, "full")
    journal_path = tmp_path / "full" / "journal.jsonl"
    lines = journal_path.read_text().splitlines(keepends=True)
    shard_lines = [line for line in lines if '"kind": "shard"' in line]
    assert len(shard_lines) > 2
    # Kill the campaign "mid-batch": keep the header and roughly half
    # the completed units, then resume under a different worker count.
    cut = tmp_path / "cut" / "journal.jsonl"
    cut.parent.mkdir()
    cut.write_text("".join(lines[:1 + len(lines) // 2]))
    resumed_config = tiny_config(**SEQUENTIAL)
    resumed, resumed_manifest = _run_sequential(
        resumed_config, tmp_path, "cut", workers=2, resume=True
    )
    assert resumed_manifest.metrics_digest == full_manifest.metrics_digest
    # The resumed run recomputes every stopping decision from the
    # replayed outcomes — stopping points, stop reasons, trajectories,
    # all identical to the uninterrupted run.
    assert resumed_manifest.sequential == full_manifest.sequential
    # And its journal's batch audit records agree with the original's.
    original = CampaignJournal.load(journal_path)
    rerun = CampaignJournal.load(cut)
    for key, entry in rerun.batches.items():
        if key in original.batches:
            assert entry == original.batches[key]


def test_sequential_schedule_is_in_campaign_key():
    config = tiny_config(**SEQUENTIAL)
    faultload = WebServerExperiment(config).prepared_faultload()
    from repro.harness.campaign import campaign_key
    base = campaign_key(config, faultload)
    for attribute, value in (
        ("ci_target", 0.25),
        ("ci_confidence", 0.9),
        ("slots_per_shard", 3),
        ("sequential_min_slots", 9),
        ("sequential_max_slots", 12),
        ("sequential", False),
    ):
        changed = tiny_config(**SEQUENTIAL)
        setattr(changed, attribute, value)
        assert campaign_key(changed, faultload) != base, attribute


def test_sequential_executes_a_subset_and_reports_savings(tmp_path):
    config = tiny_config(fault_sample=48, sequential=True, ci_target=0.8,
                         slots_per_shard=2,
                         sequential_min_slots=4)
    result, manifest = _run_sequential(config, tmp_path, "save")
    block = manifest.sequential
    assert block["executed_slots"] <= block["planned_slots"]
    assert block["slots_skipped"] == (
        block["planned_slots"] - block["executed_slots"]
    )
    # Manifest JSON is jq-parseable (no Infinity/NaN leaked).
    import json
    json.loads(json.dumps(block, allow_nan=False))
