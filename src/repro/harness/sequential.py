"""Sequential statistical injection (DESIGN.md §14).

An exhaustive campaign executes every sampled slot even when a fault
type's dependability metrics converged long ago.  This module replaces
slot-count exhaustion with statistical sufficiency — the "iterative
statistical injection" speed-up of the DAVOS line of work:

* the prepared faultload is **stratified by fault type**, preserving the
  Table 1 proportions and the prepared slot order within each stratum;
* each stratum is cut into **batches** of ``config.slots_per_shard``
  slots (the batch-means observation unit — one
  :class:`~repro.harness.campaign.CampaignShard` per batch, so the
  existing executor backends dispatch them unchanged);
* after a batch completes, the stratum's
  :class:`~repro.harness.metrics.StratumEstimator` updates and the
  stratum **stops** once every tracked metric's confidence interval is
  tighter than the target (or its slots run out, or its ceiling hits).

Determinism is by construction, exactly like the rest of the campaign
engine: the batch plan is a pure function of (faultload, batch size);
batches run on shard-seeded private machines; and stopping decisions are
evaluated per stratum, in fault-type order, from that stratum's batch
outcomes alone — never from arrival order, worker count, or backend.
Two campaigns with the same stopping schedule therefore execute the
*same slot set* and merge to byte-identical ``metrics_digest`` values,
which the parity harness (``tests/harness/test_parity.py``) enforces.
"""

from dataclasses import dataclass, field

from repro.harness.metrics import (
    SEQUENTIAL_TRACKED_METRICS,
    StratumEstimator,
)
from repro.sim.rng import SeededRng, derive_seed

__all__ = [
    "SequentialController",
    "StratumPlan",
    "StratumState",
    "batch_observation",
    "plan_sequential_strata",
]


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StratumPlan:
    """One fault type's share of the campaign, cut into batches.

    ``batches`` are :class:`CampaignShard` instances with globally
    unique indices and contiguous slot ranges, assigned in stratum-major
    plan order — so journal replay, shard seeding, and merge ordering
    all work exactly as in an exhaustive campaign.
    """

    position: int
    fault_type: str
    first_slot: int
    planned_slots: int
    batches: tuple


def plan_sequential_strata(faultload, batch_slots):
    """Stratify a prepared faultload and cut each stratum into batches.

    A pure function of the faultload order and the batch size — worker
    count and backend never enter, which is what makes the executed slot
    set (and hence the digest) independent of them.
    """
    # Imported here: campaign.py imports this module, and CampaignShard
    # lives there.
    from repro.harness.campaign import CampaignShard

    if batch_slots < 1:
        raise ValueError("batch_slots must be >= 1")
    strata = []
    shard_index = 0
    slot = 0
    for position, (fault_type, locations) in enumerate(
            faultload.strata_by_type()):
        batches = []
        for first in range(0, len(locations), batch_slots):
            chunk = tuple(locations[first:first + batch_slots])
            batches.append(CampaignShard(
                index=shard_index,
                first_slot=slot,
                locations=chunk,
            ))
            shard_index += 1
            slot += len(chunk)
        strata.append(StratumPlan(
            position=position,
            fault_type=fault_type.value,
            first_slot=batches[0].first_slot,
            planned_slots=len(locations),
            batches=tuple(batches),
        ))
    return strata


def batch_observation(outcome, num_connections):
    """One batch's observation vector for the stratum estimator.

    SPCf/THRf/RTMf/ER%f come from the batch's merged SPECWeb partial;
    ADMf is normalized per slot so batches (and strata) of different
    sizes stay comparable.
    """
    metrics = outcome.partial.to_metrics(num_connections)
    slots = max(1, outcome.num_slots)
    return {
        "SPCf": metrics.spc,
        "THRf": metrics.thr,
        "RTMf": metrics.rtm_ms,
        "ADMf": (outcome.mis + outcome.kns + outcome.kcp) / slots,
        "ER%f": metrics.er_percent,
    }


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------
@dataclass
class StratumState:
    """Mutable sampling state of one stratum during a campaign."""

    plan: StratumPlan
    estimator: StratumEstimator
    rng: SeededRng
    next_batch: int = 0
    executed_slots: int = 0
    stop_reason: str | None = None
    # One snapshot per observed batch: the interval trajectory the
    # manifest exposes (diagnostic, outside the metrics digest).
    trajectory: list = field(default_factory=list)

    @property
    def open(self):
        return self.stop_reason is None

    def pending_batch(self):
        """The next undispatched batch, or None when exhausted."""
        if self.next_batch >= len(self.plan.batches):
            return None
        return self.plan.batches[self.next_batch]


class SequentialController:
    """Drives the batch rounds and the per-stratum stopping decisions.

    The campaign asks for :meth:`next_round` (one pending batch per
    still-open stratum, in fault-type order), dispatches those batches
    through whatever executor backend is configured, then feeds each
    completed outcome back via :meth:`complete_batch` — again in
    fault-type order, never arrival order.  Because every decision is a
    pure function of (config, seed, the stratum's own outcomes), a
    resumed campaign replaying journaled outcomes recomputes the exact
    stopping decisions of the uninterrupted run.
    """

    def __init__(self, config, strata):
        self.config = config
        self.ci_target = float(config.ci_target)
        self.min_slots = config.resolved_sequential_min_slots()
        self.max_slots = config.sequential_max_slots
        self.states = [
            StratumState(
                plan=plan,
                estimator=StratumEstimator(
                    confidence=config.ci_confidence
                ),
                # The bootstrap stream is seeded per stratum *position*
                # (not shard index), so it is independent of how many
                # batches ran — a resume consumes it identically.
                rng=SeededRng(derive_seed(
                    config.seed, "sequential-ci", plan.position
                )),
            )
            for plan in strata
        ]

    # ------------------------------------------------------------------
    def next_round(self):
        """One pending batch per open stratum, in fault-type order."""
        round_batches = []
        for state in self.states:
            if not state.open:
                continue
            batch = state.pending_batch()
            if batch is None:
                # All planned slots ran without hitting the target.
                state.stop_reason = "exhausted"
                continue
            round_batches.append((state, batch))
        return round_batches

    def complete_batch(self, state, batch, outcome):
        """Fold one completed batch into its stratum and decide.

        ``outcome=None`` marks a quarantined batch: its slots are
        missing from the merged metrics, so the stratum's estimates can
        no longer be trusted to converge — it stops immediately with
        reason ``"quarantined"`` rather than sampling around the hole.
        """
        state.next_batch += 1
        if outcome is None:
            state.stop_reason = "quarantined"
            return
        state.executed_slots += outcome.num_slots
        state.estimator.observe(
            batch_observation(outcome, self.config.client.connections)
        )
        # Half-widths are computed for every observed batch — including
        # ones below the slot floor — so the bootstrap rng advances the
        # same way no matter where the floor sits.
        widths = state.estimator.half_widths(state.rng)
        means = state.estimator.means()
        state.trajectory.append({
            "batch": state.next_batch - 1,
            "executed_slots": state.executed_slots,
            "half_widths": _rounded(widths),
        })
        if state.pending_batch() is None:
            state.stop_reason = "exhausted"
        elif (self.max_slots is not None
                and state.executed_slots >= self.max_slots):
            state.stop_reason = "max-slots"
        elif (state.executed_slots >= self.min_slots
                and _converged(widths, means, self.ci_target)):
            state.stop_reason = "confidence"

    # ------------------------------------------------------------------
    def summary(self):
        """The iteration's ``sequential`` accounting block.

        Diagnostic — written to the manifest *outside* the metrics
        digest.  ``stopping_points`` (fault type → slots executed) is
        part of what the parity harness compares across worker counts,
        backends and resumes.
        """
        planned = sum(state.plan.planned_slots for state in self.states)
        executed = sum(state.executed_slots for state in self.states)
        strata = []
        for state in self.states:
            strata.append({
                "fault_type": state.plan.fault_type,
                "planned_slots": state.plan.planned_slots,
                "executed_slots": state.executed_slots,
                "batches_executed": len(state.trajectory),
                "stop_reason": state.stop_reason,
                "means": _rounded(state.estimator.means()),
                # The final interval snapshot is the last trajectory
                # entry (bootstrap-backed); falling back to the normal
                # approximation only for a stratum that never observed.
                "half_widths": (
                    state.trajectory[-1]["half_widths"]
                    if state.trajectory
                    else _rounded(state.estimator.half_widths())
                ),
                "trajectory": state.trajectory,
            })
        return {
            "planned_slots": planned,
            "executed_slots": executed,
            "slots_skipped": planned - executed,
            "stopping_points": {
                state.plan.fault_type: state.executed_slots
                for state in self.states
            },
            "stop_reasons": {
                state.plan.fault_type: state.stop_reason
                for state in self.states
            },
            "strata": strata,
        }


def _converged(widths, means, ci_target):
    """The stopping rule over precomputed half-widths.

    Relative target with an absolute floor: ``half_width <= ci_target *
    max(|mean|, 1.0)``.  ``None`` (undefined, fewer than two batches)
    never converges.
    """
    for metric in SEQUENTIAL_TRACKED_METRICS:
        width = widths[metric]
        if width is None:
            return False
        if width > ci_target * max(abs(means[metric]), 1.0):
            return False
    return True


def _rounded(values):
    """JSON-safe copy of a metric dict (None survives, floats round)."""
    return {
        metric: None if value is None else round(float(value), 6)
        for metric, value in values.items()
    }
