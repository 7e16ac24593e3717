"""Parallel campaign engine.

The paper's experiment is embarrassingly parallel: every injection slot
is independent (the fault is removed and the server repaired between
slots), so a campaign can be sharded across worker processes.  The unit
of work is a **shard** — one contiguous run of ``config.slots_per_shard``
slots, by default exactly one SPECWeb conformance batch, so the
conformance grouping of a sharded run matches a serial one.

Determinism is the design constraint:

* the shard plan depends only on the prepared faultload and the shard
  size (a config field, so part of the campaign key) — never on the
  worker count;
* each shard runs on a private machine seeded from
  ``derive_seed(config.seed, "campaign-shard", shard.index)``, so its
  behaviour is independent of scheduling;
* workers return their machine's partial sums (``partial_type``),
  which the parent merges in slot order, together with each shard's
  :class:`~repro.harness.results.SlotTally` (MIS/KNS/KCP, runtime
  stats, integrity and activation records).

Consequently ``workers=N`` is bit-identical to ``workers=1`` for the
same config and seed.

**Checkpoint/resume**: when given a journal path the campaign appends
one JSON line per completed unit (header, baseline/profile phases, and
every ``(iteration, shard)``).  ``resume=True`` replays completed units
from the journal — a campaign killed mid-iteration and resumed produces
exactly the result of an uninterrupted run.

**Supervision**: shards run under a
:class:`~repro.harness.supervisor.ShardSupervisor` — a crashed or killed
worker is retried on a fresh dispatch, a hung shard is detected by its
wall-clock deadline, and a shard that keeps failing is quarantined
(recorded with its fault ids) instead of sinking the campaign, which
then completes with ``degraded=True``.  Every supervision decision and
phase boundary is streamed to a telemetry JSONL file, and the run ends
by writing a :class:`~repro.harness.telemetry.RunManifest` whose
``metrics_digest`` is byte-identical for any worker count — the hook the
parity harness (``tests/harness/test_parity.py``) checks determinism on.
"""

import gc
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

from repro.faults.faultload import Faultload
from repro.gswfit.cache import (
    library_fingerprint,
    scan_build_cached,
    warm_mutant_cache,
)
from repro.harness.experiment import (
    ACTIVATION_FLOOR_FRACTION,
    WebServerExperiment,
    profile_servers,
)
from repro.harness.jsonl import drop_torn_tail, read_jsonl
from repro.harness.machine import ServerMachine, machine_class
from repro.harness.results import (
    BenchmarkResult,
    InjectionIteration,
    SlotTally,
)
from repro.harness.sequential import (
    SequentialController,
    plan_sequential_strata,
)
from repro.harness.supervisor import DEFAULT_MAX_RETRIES, ShardSupervisor
from repro.harness.telemetry import (
    NullTelemetry,
    RunManifest,
    TelemetryWriter,
    faultload_digest,
    metrics_digest,
)
from repro.ossim.builds import get_build
from repro.sim.rng import derive_seed

__all__ = [
    "CampaignJournal",
    "CampaignShard",
    "JournalMismatch",
    "ParallelCampaign",
    "ShardOutcome",
    "campaign_key",
    "derive_activation_deadlines",
    "merge_outcomes",
    "plan_shards",
    "run_shard",
]


class JournalMismatch(ValueError):
    """``resume=True`` over a journal this campaign cannot replay: one
    another campaign wrote, one of another journal version, or one with
    a record today's classes cannot rebuild."""


# v7: shard outcomes are a SlotTally; the unread ``snapshot_enabled``
# flag is gone.
# v6: sequential campaigns append ``batch`` records — the per-stratum
# stopping decisions — alongside the shard outcomes they were derived
# from, so a resumed run can be audited against the uninterrupted one.
# v5: shard outcomes carry epoch-setup accounting (booted vs restored
# epochs, pristine restarts).
# A journal of any other version is an error on resume, never merged.
JOURNAL_VERSION = 7


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignShard:
    """A contiguous run of injection slots (one worker task)."""

    index: int
    first_slot: int
    locations: tuple

    def __len__(self):
        return len(self.locations)


def plan_shards(faultload, slots_per_shard):
    """Cut a prepared faultload into contiguous shards.

    The plan is a pure function of the faultload order and the shard
    size — the worker count never enters, which is what makes the merged
    result independent of it.
    """
    if slots_per_shard < 1:
        raise ValueError("slots_per_shard must be >= 1")
    locations = list(faultload)
    shards = []
    for index, first in enumerate(range(0, len(locations),
                                        slots_per_shard)):
        shards.append(CampaignShard(
            index=index,
            first_slot=first,
            locations=tuple(locations[first:first + slots_per_shard]),
        ))
    return shards


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class ShardOutcome(SlotTally):
    """What one shard contributes to an iteration's merged result: its
    slot range, its machine's metrics partial, and its tally
    (slot-global records)."""

    shard_index: int
    first_slot: int
    num_slots: int
    partial: object

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data, partial_type):
        data = dict(data)
        data["partial"] = partial_type(**data["partial"])
        return cls(**data)


def derive_activation_deadlines(config):
    """Profile the target and derive per-function activation deadlines.

    Runs a short deterministic API-usage trace of the configured server
    (the Section 3.3 profiling phase, reused) and converts each observed
    function's call rate into a truncation deadline: a function called
    every ``gap`` seconds that has not activated within ``4 * gap`` of
    slot start almost certainly never will this slot.  The deadline is
    clamped between the floor fraction and the slot length.

    The table is a pure function of the config (trace seeded like every
    other machine), so the campaign parent derives it once *before* the
    campaign key is computed and every worker inherits the same table —
    worker-count parity is preserved by construction.  Functions the
    trace never observed fall back to the floor fraction at lookup time.
    """
    seconds = config.activation_profile_seconds
    tracer = profile_servers(
        config, [config.server_name], seconds=seconds
    )[config.server_name]
    slot = config.rules.slot_seconds
    floor = slot * ACTIVATION_FLOOR_FRACTION
    per_function = {}
    for (_module_display, function), count in tracer.counts.items():
        per_function[function] = per_function.get(function, 0) + count
    deadlines = {}
    for function in sorted(per_function):
        gap = seconds / per_function[function]
        deadlines[function] = round(min(slot, max(4.0 * gap, floor)), 6)
    return deadlines


def shard_seed(base_seed, shard_index):
    """The seed family one shard's machine draws from."""
    return derive_seed(base_seed, "campaign-shard", shard_index)


def run_shard(config, iteration, shard):
    """Run one shard's slots on a private machine (worker entry point).

    Top-level so it pickles by reference into a worker's assignment; it
    is also what ``workers=1`` calls directly, keeping the two modes on
    one code path.  Its mutants come from the in-process memo the
    campaign warmed before forking any worker.

    Every machine the shard brought up is freed before it returns: a
    retired machine is held by reference cycles, which only a full
    collection reclaims (DESIGN.md §12), so each campaign process holds
    at most the current shard's machines.
    """
    if config.operator_specs:
        # Workers may be remote or freshly started processes:
        # the dynamic operators behind the shard's fault ids must exist
        # before any mutant is resolved.  Idempotent by spec digest.
        from repro.gswfit.dsl import install_spec_operators

        install_spec_operators(config.operator_specs)
    shard_config = replace(config)
    shard_config.seed = shard_seed(config.seed, shard.index)
    faultload = Faultload(
        config.os_codename,
        shard.locations,
        name=f"shard-{shard.index}",
        prepared=True,
    )
    experiment = WebServerExperiment(shard_config)
    run = experiment.run_slots(
        faultload, iteration=iteration, first_slot=shard.first_slot
    )
    outcome = ShardOutcome.merge(
        [run],
        shard_index=shard.index,
        first_slot=shard.first_slot,
        num_slots=len(shard.locations),
        partial=run.compute_partial(),
    )
    gc.collect()
    return outcome


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def merge_outcomes(outcomes, iteration, config):
    """Fold one ``config`` campaign's shard outcomes into one
    :class:`InjectionIteration`.

    Outcomes are re-sorted by slot index first, so arrival order (which
    *does* depend on scheduling) never leaks into the result.  Partials
    merge through the type the config's machine class names, so an
    iteration whose every shard was quarantined still merges, to zeros.
    """
    ordered = sorted(outcomes, key=lambda outcome: outcome.first_slot)
    partial = machine_class(config.server_name).partial_type.merge(
        outcome.partial for outcome in ordered
    )
    return InjectionIteration.merge(
        ordered, iteration=iteration,
        metrics=partial.to_metrics(config.connections),
    )


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def campaign_key(config, faultload):
    """Identity of one campaign: config + exact slot sequence."""
    payload = json.dumps(
        {
            "config": asdict(config),
            "faultload": [loc.fault_id for loc in faultload],
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CampaignJournal:
    """Append-only JSONL checkpoint of completed campaign units.

    Line kinds:

    * ``header`` — journal version + campaign key + shape metadata,
      written once; resume refuses a journal whose key differs.
    * ``phase``  — a completed baseline / profile-mode phase with its
      metrics' fields (the machine's ``metrics_type``).
    * ``shard``  — a completed ``(iteration, shard)`` with its
      :class:`ShardOutcome`.
    * ``batch``  — a sequential-mode stopping record: which stratum the
      shard belonged to, the slots executed so far, and the decision the
      controller took after folding it in.  Audit trail only — resume
      *recomputes* decisions from the replayed shard outcomes (a pure
      function, so they match), and tests assert they do.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.header = None
        self.phases = {}
        self.shards = {}
        self.batches = {}

    @classmethod
    def load(cls, path, machine):
        """Read a journal back through ``machine``'s result types;
        raises :class:`JournalMismatch` for one of another version or
        with a phase or shard record they cannot rebuild — replaying
        either could change the digest."""
        journal = cls(path)
        # The shared torn-tail reader (also behind the telemetry
        # reader): a torn final line reruns its unit, a torn interior
        # line means real corruption and raises.
        for lineno, entry in read_jsonl(journal.path):
            kind = entry.get("kind")
            if kind == "header":
                version = entry.get("version")
                if version != JOURNAL_VERSION:
                    raise JournalMismatch(
                        f"journal {journal.path} is version {version}, "
                        f"current {JOURNAL_VERSION}: rerun without "
                        "--resume"
                    )
                journal.header = entry
            elif kind in ("phase", "shard"):
                try:
                    if kind == "phase":
                        journal.phases[entry["phase"]] = (
                            machine.metrics_type(**entry["metrics"]))
                    else:
                        key = (entry["iteration"], entry["shard"])
                        journal.shards[key] = ShardOutcome.from_dict(
                            entry["outcome"], machine.partial_type)
                except (KeyError, TypeError, ValueError) as exc:
                    raise JournalMismatch(
                        f"journal {journal.path} line {lineno}: "
                        f"unreadable {kind} record ({exc!r}); rerun "
                        "without --resume"
                    ) from exc
            elif kind == "batch":
                journal.batches[
                    (entry["iteration"], entry["shard"])
                ] = entry
        return journal

    def _append(self, entry):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            # One buffered write per record, newline included: a crash
            # mid-append can tear at most the final line, which load()
            # drops and a resume cuts off before appending.
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def write_header(self, key, num_shards, iterations):
        self.header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "campaign_key": key,
            "num_shards": num_shards,
            "iterations": iterations,
        }
        self._append(self.header)

    def record_phase(self, phase, metrics):
        self.phases[phase] = metrics
        self._append({
            "kind": "phase",
            "phase": phase,
            "metrics": asdict(metrics),
        })

    def record_shard(self, iteration, outcome):
        self.shards[(iteration, outcome.shard_index)] = outcome
        self._append({
            "kind": "shard",
            "iteration": iteration,
            "shard": outcome.shard_index,
            "outcome": outcome.to_dict(),
        })

    def record_batch(self, iteration, shard_index, stratum,
                     executed_slots, stop_reason):
        entry = {
            "kind": "batch",
            "iteration": iteration,
            "shard": shard_index,
            "stratum": stratum,
            "executed_slots": executed_slots,
            "stop_reason": stop_reason,
        }
        self.batches[(iteration, shard_index)] = entry
        self._append(entry)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
class ParallelCampaign:
    """One server/OS campaign, sharded across worker processes.

    Parameters
    ----------
    config:
        The :class:`~repro.harness.config.ExperimentConfig` to run.
    workers:
        Local worker processes (default: ``os.cpu_count()``).  ``1`` runs
        every shard in-process on the same code path; ``N >= 2`` forks N
        workers (:class:`~repro.harness.supervisor.ShardSupervisor`)
        after the mutant warm-up.  Because the shard plan, seeds, and merge
        ignore where a shard ran, the ``metrics_digest`` is identical
        for every value.
    journal_path / resume:
        Checkpointing (see :class:`CampaignJournal`).
    cache_dir:
        Disk cache directory for the build scan and the precompiled
        mutants (see :mod:`repro.gswfit.cache`), read and written by
        this process.  :meth:`run` compiles the sampled faultload's
        mutants once, up-front, before any worker process exists, so
        every forked worker inherits the warm in-process memo and never
        reaches the disk tier.
    shard_timeout:
        Wall-clock deadline in seconds for one shard attempt; a shard
        exceeding it is treated as hung (default None: no deadline).
    max_retries:
        Charged failures (crash / worker death / hang) a shard may
        accumulate before it is quarantined.
    telemetry_path / manifest_path:
        Where to stream supervision events (JSONL) and write the run
        manifest.  Default: derived siblings of ``journal_path``
        (``<journal stem>.telemetry.jsonl`` / ``.manifest.json``) when a
        journal is configured, otherwise off / in-memory only.  A run
        without ``resume`` replaces the telemetry stream; a resumed run
        appends to it.  The manifest is always available as
        ``campaign.manifest`` after :meth:`run`.
    """

    def __init__(self, config, workers=None,
                 journal_path=None, resume=False, cache_dir=None,
                 shard_timeout=None,
                 max_retries=DEFAULT_MAX_RETRIES,
                 telemetry_path=None, manifest_path=None):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        if config.operator_specs:
            # Install DSL operators in the parent before anything scans
            # or computes fingerprints; workers repeat this in
            # :func:`run_shard` (idempotent by spec digest).
            from repro.gswfit.dsl import install_spec_operators

            install_spec_operators(config.operator_specs)
        self.config = config
        self.journal_path = journal_path
        self.resume = resume
        self.cache_dir = cache_dir
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        if journal_path is not None:
            journal = Path(journal_path)
            if telemetry_path is None:
                telemetry_path = journal.with_suffix(".telemetry.jsonl")
            if manifest_path is None:
                manifest_path = journal.with_suffix(".manifest.json")
        self.telemetry_path = telemetry_path
        self.manifest_path = manifest_path
        self.warmup_stats = None
        self.manifest = None
        self.experiment = WebServerExperiment(config)

    # ------------------------------------------------------------------
    def prepared_faultload(self, faultload=None):
        """Scan (through the cache) and prepare, exactly once."""
        if faultload is None:
            build = get_build(self.config.os_codename)
            faultload = scan_build_cached(build, cache_dir=self.cache_dir)
        return self.experiment.prepared_faultload(faultload)

    def _open_journal(self, key, num_shards):
        if self.journal_path is None:
            return None
        if self.resume:
            journal = CampaignJournal.load(
                self.journal_path, self.experiment.machine_class
            )
            if (journal.header is not None
                    and journal.header.get("campaign_key") != key):
                raise JournalMismatch(
                    f"journal {self.journal_path} belongs to a "
                    "different campaign (config/faultload changed); "
                    "delete it or drop --resume"
                )
            # This campaign's journal: the unit of a torn final record
            # reruns, and its new record must start on a fresh line.
            drop_torn_tail(self.journal_path)
            if journal.header is not None:
                return journal
        else:
            Path(self.journal_path).unlink(missing_ok=True)
        journal = CampaignJournal(self.journal_path)
        journal.write_header(
            key, num_shards, self.config.rules.iterations
        )
        return journal

    def _run_phase(self, journal, phase, runner, telemetry, timings):
        if journal is not None and phase in journal.phases:
            telemetry.emit("phase_replayed", phase=phase)
            return journal.phases[phase]
        telemetry.emit("phase_start", phase=phase)
        started = time.perf_counter()
        metrics = runner()
        timings[phase] = round(time.perf_counter() - started, 6)
        telemetry.emit("phase_end", phase=phase,
                       seconds=timings[phase])
        if journal is not None:
            journal.record_phase(phase, metrics)
        return metrics

    def _shard_task(self, iteration):
        """The picklable per-shard callable one iteration dispatches."""
        return partial(run_shard, self.config, iteration)

    def _dispatch(self, journal, shards, iteration, supervisor, done):
        """Replay the journaled ``shards`` into ``done`` and run the
        rest, journaling each outcome as it lands; returns the replayed
        shard indices."""
        replayed = set()
        if journal is not None:
            for shard in shards:
                outcome = journal.shards.get((iteration, shard.index))
                if outcome is not None:
                    done[shard.index] = outcome
                    replayed.add(shard.index)
        todo = [shard for shard in shards if shard.index not in replayed]
        if not todo:
            return replayed

        def record(outcome):
            done[outcome.shard_index] = outcome
            if journal is not None:
                journal.record_shard(iteration, outcome)

        supervisor.run(todo, self._shard_task(iteration), on_outcome=record)
        return replayed

    def _run_iteration(self, journal, shards, iteration, supervisor):
        done = {}
        self._dispatch(journal, shards, iteration, supervisor, done)
        return merge_outcomes(done.values(), iteration, self.config)

    def _run_sequential_iteration(self, journal, strata, iteration,
                                  supervisor):
        """One iteration in sequential mode: batch rounds until every
        stratum stops.

        Each round dispatches the next pending batch of every open
        stratum through the supervisor, then feeds completions back to
        the controller in fault-type order — arrival order never reaches
        a decision.
        Journaled batches replay instead of dispatching, and because the
        controller's decisions are pure functions of the replayed
        outcomes, a resumed campaign stops every stratum exactly where
        the uninterrupted run would have.
        """
        controller = SequentialController(self.config, strata)
        done = {}
        while True:
            round_batches = controller.next_round()
            if not round_batches:
                break
            replayed = self._dispatch(
                journal, [batch for _state, batch in round_batches],
                iteration, supervisor, done,
            )
            for state, batch in round_batches:
                # A quarantined batch never completed: done has no
                # entry, and the stratum stops rather than sampling
                # around the hole.
                controller.complete_batch(
                    state, batch, done.get(batch.index)
                )
                if journal is not None and batch.index not in replayed:
                    journal.record_batch(
                        iteration, batch.index, state.plan.fault_type,
                        state.executed_slots, state.stop_reason,
                    )
        merged = merge_outcomes(done.values(), iteration, self.config)
        return merged, controller.summary()

    def _sequential_summary(self, per_iteration, strata):
        """The manifest's ``sequential`` block (diagnostic, outside the
        metrics digest — stopping decisions are *reflected in* the
        executed slot set the digest covers, they are not hashed
        themselves)."""
        if strata is None:
            return {"enabled": False}
        planned = (
            sum(plan.planned_slots for plan in strata)
            * max(1, len(per_iteration))
        )
        executed = sum(
            summary["executed_slots"] for summary in per_iteration
        )
        skipped = planned - executed
        stopping_points = {}
        stop_reasons = {}
        for summary in per_iteration:
            for fault_type, slots in summary["stopping_points"].items():
                stopping_points.setdefault(fault_type, []).append(slots)
            for fault_type, reason in summary["stop_reasons"].items():
                stop_reasons.setdefault(fault_type, []).append(reason)
        return {
            "enabled": True,
            "ci_target": self.config.ci_target,
            "ci_confidence": self.config.ci_confidence,
            "batch_slots": self.config.slots_per_shard,
            "min_slots": self.config.resolved_sequential_min_slots(),
            "max_slots": self.config.sequential_max_slots,
            "planned_slots": planned,
            "executed_slots": executed,
            "slots_skipped": skipped,
            "slots_saved_percent": (
                round(100.0 * skipped / planned, 6) if planned else None
            ),
            "stopping_points": stopping_points,
            "stop_reasons": stop_reasons,
            "per_iteration": per_iteration,
        }

    # ------------------------------------------------------------------
    def run(self, faultload=None, include_baseline=True,
            include_profile_mode=True):
        """Run (or resume) the campaign; returns a BenchmarkResult.

        Worker crashes, kills, and hangs are absorbed by the shard
        supervisor: the campaign completes with ``result.degraded=True``
        and the offending slots quarantined (never with a worker
        exception).  The run manifest — including the deterministic
        metrics digest — is left on ``self.manifest`` and written to
        ``manifest_path`` when one is configured.
        """
        telemetry = NullTelemetry()
        if self.telemetry_path is not None:
            if not self.resume:
                # A new campaign starts a new stream; a resumed one
                # continues the stream of the run it resumes.
                Path(self.telemetry_path).unlink(missing_ok=True)
            telemetry = TelemetryWriter(self.telemetry_path)
        timings = {}
        started = time.perf_counter()
        faultload = self.prepared_faultload(faultload)
        timings["prepare"] = round(time.perf_counter() - started, 6)
        # Plan before any other phase: a sequential campaign the planner
        # refuses is refused before it profiles or compiles anything.
        # Neither planner reads the deadline table derived below.
        strata = None
        if self.config.sequential:
            # The stopping rule estimates SPECWeb measures (DESIGN.md
            # §14), which an OLTP engine's results do not carry.
            if self.experiment.machine_class is not ServerMachine:
                raise ValueError(
                    f"sequential mode estimates SPECWeb measures, and "
                    f"{self.config.server_name} is an OLTP engine"
                )
            # Sequential mode: the shard plan is the stratified batch
            # plan — still a pure function of (faultload, config), so
            # the campaign key and every shard seed are unchanged by
            # worker count.
            strata = plan_sequential_strata(
                faultload, self.config.slots_per_shard
            )
            shards = [batch for plan in strata for batch in plan.batches]
        else:
            shards = plan_shards(faultload, self.config.slots_per_shard)
        if (self.config.adaptive_slots
                and self.config.activation_deadlines is None):
            # Derive the deadline table before the campaign key is
            # computed: the table becomes part of the config, hence of
            # the key and of every shard's behaviour — identically for
            # any worker count.  Mutated in place so the experiment
            # (which shares this config object) stays in sync.
            started = time.perf_counter()
            self.config.activation_deadlines = (
                derive_activation_deadlines(self.config)
            )
            timings["activation_profile"] = round(
                time.perf_counter() - started, 6
            )
        # Compile every sampled mutant exactly once, before any worker
        # process exists: forked workers inherit the warm memo.  Probed
        # variants: the same entries the slot runs will request.  State
        # faults have no mutant.
        started = time.perf_counter()
        self.warmup_stats = warm_mutant_cache(
            [fault for fault in faultload if fault.mutates_code],
            cache_dir=self.cache_dir, probed=True,
        )
        timings["warm_mutants"] = round(time.perf_counter() - started, 6)
        key = campaign_key(self.config, faultload)
        journal = self._open_journal(key, len(shards))
        telemetry.emit(
            "campaign_start",
            campaign_key=key,
            workers=self.workers,
            shards=len(shards),
            slots=len(faultload),
            iterations=self.config.rules.iterations,
        )
        result = BenchmarkResult(
            server_name=self.config.server_name,
            os_codename=self.config.os_codename,
            os_display=self.experiment.build.display_name,
        )
        if include_baseline:
            result.baseline = self._run_phase(
                journal, "baseline",
                lambda: self.experiment.run_baseline(iteration=0),
                telemetry, timings,
            )
        if include_profile_mode:
            result.profile_mode = self._run_phase(
                journal, "profile_mode",
                lambda: self.experiment.run_profile_mode(
                    iteration=0, faultload=faultload
                ),
                telemetry, timings,
            )
        # One supervisor for the whole campaign: its workers are forked
        # once, not once per iteration, and it keeps the running totals.
        supervisor = ShardSupervisor(
            workers=self.workers,
            shard_timeout=self.shard_timeout,
            max_retries=self.max_retries,
            telemetry=telemetry,
        )
        quarantine = []
        sequential_iterations = []
        try:
            for iteration in range(1, self.config.rules.iterations + 1):
                telemetry.emit("iteration_start", iteration=iteration)
                started = time.perf_counter()
                if strata is not None:
                    merged, stratum_summary = (
                        self._run_sequential_iteration(
                            journal, strata, iteration, supervisor
                        )
                    )
                    sequential_iterations.append(stratum_summary)
                else:
                    merged = self._run_iteration(
                        journal, shards, iteration, supervisor
                    )
                timings[f"iteration-{iteration}"] = round(
                    time.perf_counter() - started, 6
                )
                # The supervisor's quarantine records this iteration
                # added, tagged with it.
                added = supervisor.quarantined[len(quarantine):]
                quarantine.extend(
                    {"iteration": iteration, **quarantined.to_dict()}
                    for quarantined in added
                )
                result.add_iteration(merged)
                telemetry.emit(
                    "iteration_end",
                    iteration=iteration,
                    seconds=timings[f"iteration-{iteration}"],
                    quarantined=len(added),
                )
            fabric = supervisor.backend_stats()
        finally:
            supervisor.close()
        result.quarantine = quarantine
        result.degraded = bool(quarantine)
        supervision = {
            "retries": supervisor.retries,
            "pool_rebuilds": supervisor.pool_rebuilds,
            "serial_fallback": supervisor.serial_fallback,
            "quarantined": quarantine,
            "degraded": result.degraded,
        }
        tally = SlotTally.merge(result.iterations)
        integrity = self._integrity_summary(tally)
        activation = self._activation_summary(tally)
        snapshot = self._snapshot_summary(tally)
        sequential = self._sequential_summary(sequential_iterations, strata)
        result.sequential = sequential
        digest = metrics_digest(result)
        self.manifest = RunManifest(
            campaign_key=key,
            server=self.config.server_name,
            os_codename=self.config.os_codename,
            os_display=self.experiment.build.display_name,
            seed=self.config.seed,
            build_fingerprint=library_fingerprint(self.experiment.build),
            faultload_digest=faultload_digest(faultload),
            slots=len(faultload),
            workers=self.workers,
            slots_per_shard=self.config.slots_per_shard,
            num_shards=len(shards),
            iterations=self.config.rules.iterations,
            journal_version=JOURNAL_VERSION,
            phase_timings=timings,
            supervision=supervision,
            integrity=integrity,
            activation=activation,
            snapshot=snapshot,
            fabric=fabric,
            sequential=sequential,
            metrics_digest=digest,
            created_at=round(time.time(), 6),
        )
        if self.manifest_path is not None:
            self.manifest.write(self.manifest_path)
        telemetry.emit("integrity_summary", **integrity)
        telemetry.emit("activation_summary", **activation)
        telemetry.emit("snapshot_summary", **snapshot)
        telemetry.emit("fabric_summary", **fabric)
        telemetry.emit(
            "sequential_summary",
            **{key: value for key, value in sequential.items()
               if key != "per_iteration"},
        )
        telemetry.emit(
            "campaign_end",
            degraded=result.degraded,
            metrics_digest=digest,
        )
        telemetry.close()
        return result

    # The manifest's accounting blocks: views of the campaign-wide tally
    # (every iteration merged).
    def _activation_summary(self, tally):
        rate = None
        if tally.activation_enabled and tally.faults_injected:
            rate = round(tally.faults_activated / tally.faults_injected, 6)
        return {
            "enabled": tally.activation_enabled,
            # Adaptive scheduling needs probe hits: without activation
            # tracking no slot can truncate.
            "adaptive": bool(
                self.config.adaptive_slots and tally.activation_enabled
            ),
            "faults_injected": tally.faults_injected,
            "faults_activated": tally.faults_activated,
            "activation_rate": rate,
            "slots_truncated": tally.slots_truncated,
            "sim_seconds_saved": tally.truncated_seconds,
            "deadline_functions": len(self.config.activation_deadlines or {}),
        }

    def _snapshot_summary(self, tally):
        total = tally.epochs_booted + tally.epochs_restored
        return {
            "pristine_slots": bool(self.config.pristine_slots),
            "epochs_booted": tally.epochs_booted,
            "epochs_restored": tally.epochs_restored,
            "pristine_restarts": tally.pristine_restarts,
            "restore_rate": (
                round(tally.epochs_restored / total, 6) if total else None
            ),
        }

    def _integrity_summary(self, tally):
        kinds = {}
        for record in tally.contaminated_slots:
            for kind in record["kinds"]:
                kinds[kind] = kinds.get(kind, 0) + 1
        # Under pristine slots a contaminated slot's record keeps
        # ``rebooted: false`` (records are hashed, so they stay as they
        # are), yet no slot ever runs on its machine: a fresh machine
        # follows every slot but a shard's last, and nothing follows
        # that one.
        unrebooted = 0
        if not self.config.pristine_slots:
            unrebooted = sum(
                not record["rebooted"] for record in tally.contaminated_slots
            )
        return {
            "enabled": bool(self.experiment.audited),
            "reboot_budget": self.config.reboot_budget,
            "contaminated_slots": len(tally.contaminated_slots),
            "reboots": len(tally.reboots),
            "unrebooted_contamination": unrebooted,
            "unverified_reboots": sum(
                not record["verified"] for record in tally.reboots
            ),
            "violation_kinds": dict(sorted(kinds.items())),
        }
