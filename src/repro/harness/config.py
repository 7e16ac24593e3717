"""Experiment configuration.

One :class:`ExperimentConfig` describes a full benchmark campaign for one
server/OS pair: workload scale, run rules, watchdog thresholds, and the
knobs that trade fidelity for host time (connection count, faultload
subsampling).  ``paper_scale()`` reproduces the paper's parameters;
``scaled()`` (the default) preserves the structure at laptop cost.
"""

from dataclasses import dataclass, field, replace

from repro.specweb.client import ClientConfig
from repro.specweb.rules import RunRules

__all__ = ["ExperimentConfig"]


@dataclass
class ExperimentConfig:
    """Everything one experiment needs to be reproducible."""

    os_codename: str = "nt50"
    server_name: str = "apache"
    seed: int = 2004

    rules: RunRules = field(default_factory=RunRules)
    client: ClientConfig = field(default_factory=ClientConfig)

    # Fileset scale (directories of 36 files each).
    fileset_directories: int = 8

    # Server machine.
    cpu_hz: int = 400_000_000
    operation_budget_seconds: float = 8.0

    # Injector sharing the server machine: fraction of CPU it consumes
    # while attached (profile mode and live injection alike).  The value
    # models mutant preparation plus monitoring on the single-CPU server
    # box of the paper's testbed.
    injector_cpu_fraction: float = 0.05

    # Fault application cadence: each fault stays injected for one slot
    # (rules.slot_seconds, 10 s in the paper).
    fault_sample: int | None = None  # None = full faultload
    include_internal_functions: bool = True

    # Watchdog.
    watchdog_poll_seconds: float = 1.0
    unresponsive_after_seconds: float = 4.0
    restart_grace_seconds: float = 5.0
    watchdog_max_restart_attempts: int = 5

    # Slot-gap state-integrity auditing (DESIGN.md §10): after each
    # fault is removed, audit the machine for residual damage; on
    # contamination perform a verified reboot, at most ``reboot_budget``
    # times per slot run (budget exhausted = keep running, keep
    # flagging).
    integrity_audit: bool = True
    reboot_budget: int = 2

    # Copy-on-write epoch snapshots (DESIGN.md §12): capture the
    # post-warm-up machine state once per (config, iteration) and make
    # every later epoch — contamination reboot, pristine-slot restart,
    # retried shard — a verified restore instead of a boot + warm-up.
    # Digest-neutral by construction (boot + warm-up is deterministic),
    # which the parity harness (tests/harness/test_parity.py) checks.
    snapshot_epochs: bool = True

    # Paper-faithful Fig. 4 isolation: retire and replace the machine
    # after *every* slot, so no fault can see another fault's residue
    # even in principle.  Changes the measured timeline (each slot
    # starts at the post-warm-up instant), so it is an explicit opt-in
    # (--pristine-slots); affordable when snapshot_epochs is on.
    pristine_slots: bool = False

    # False = control run: walk the full slot protocol with the injector
    # attached in profile mode but no code swapped.  Any integrity
    # violation reported in such a run is an auditor false positive —
    # the parity harness's no-inject rows rely on this.
    inject_faults: bool = True

    # Fault-activation telemetry (DESIGN.md §11).  When on, mutants carry
    # an entry probe and each slot records whether/when the faulty code
    # executed; the ACT% report column and the activation-gate CI job
    # come from this.
    track_activation: bool = True

    # Adaptive slot scheduling: truncate a slot once the faulted
    # function's activation deadline passes with zero probe hits.  Off by
    # default — changes observed windows, so it is an explicit opt-in
    # (--adaptive-slots).
    adaptive_slots: bool = False

    # function name -> activation deadline in seconds from slot start,
    # derived from a deterministic profiling trace by the campaign parent
    # (before the campaign key is computed, so all workers share it).
    # None = no table; adaptive slots fall back to the grace fraction.
    activation_deadlines: dict | None = None

    # Fallback deadline (fraction of slot_seconds) used when no deadline
    # table is available at all (e.g. single runs outside a campaign).
    activation_grace_fraction: float = 0.5

    # Deadline floor (fraction of slot_seconds) given to functions the
    # profiling trace never observed — mostly internal helpers that only
    # run on rare paths.
    activation_floor_fraction: float = 0.15

    # Length of the profiling trace used to derive the deadline table.
    activation_profile_seconds: float = 20.0

    # SPECWeb99 judges connection conformance over whole measurement
    # batches; we group this many consecutive slots per conformance batch.
    conformance_slots: int = 6

    # Sequential statistical injection (DESIGN.md §14).  When on, the
    # campaign stratifies the faultload by fault type, runs each stratum
    # in batches, and stops a stratum once the confidence interval of
    # every tracked derived metric (SPCf/THRf/RTMf, ADMf, ER%f) is
    # tighter than the target — "run until confidence, not until done".
    # Every knob below is part of the campaign key, so two runs with the
    # same stopping schedule produce byte-identical digests for any
    # worker count.
    sequential: bool = False

    # Target relative half-width: a stratum's interval for a metric is
    # tight enough when half_width <= ci_target * max(|mean|, 1.0) (the
    # 1.0 floor keeps near-zero metrics such as ADMf from demanding an
    # impossible relative precision).
    ci_target: float = 0.10

    # Two-sided confidence level of the intervals.
    ci_confidence: float = 0.95

    # Slots per sequential batch (the unit of dispatch and the
    # batch-means observation unit).  None = one conformance batch.
    sequential_batch_slots: int | None = None

    # Per-stratum floor: never stop on confidence before this many
    # slots.  None = two batches (the minimum that yields a variance).
    sequential_min_slots: int | None = None

    # Per-stratum ceiling: stop after this many slots even without
    # convergence.  None = the stratum's full planned size.
    sequential_max_slots: int | None = None

    # Declarative operator specs (DESIGN.md §16): a tuple of *canonical*
    # spec dicts, installed into the operator registry by the campaign
    # parent and by every worker before scanning (the config pickles to
    # them, so local and remote fabric workers see the same library).
    # Part of ``asdict()``, hence of the campaign key — and each spec's
    # canonical JSON is the operator's cache fingerprint, so scan and
    # mutant caches stay sound across spec edits.  None = built-ins only.
    operator_specs: tuple | None = None

    def resolved_sequential_batch(self):
        """The effective sequential batch size in slots."""
        return int(self.sequential_batch_slots or self.conformance_slots)

    def resolved_sequential_min_slots(self):
        """The effective per-stratum slot floor (>= two batches)."""
        if self.sequential_min_slots is not None:
            return int(self.sequential_min_slots)
        return 2 * self.resolved_sequential_batch()

    def iteration_seed(self, iteration):
        """Seed for one iteration: same workload family, fresh draws."""
        return self.seed * 1_000 + iteration

    @property
    def operation_budget_cycles(self):
        return int(self.operation_budget_seconds * self.cpu_hz)

    def with_target(self, server_name=None, os_codename=None):
        """A copy of this config aimed at another server/OS pair."""
        updated = replace(self)
        if server_name is not None:
            updated.server_name = server_name
        if os_codename is not None:
            updated.os_codename = os_codename
        return updated

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_scale(cls, **overrides):
        """The paper's parameters (24 h-class runs; heavy on host CPU)."""
        config = cls(
            rules=RunRules.paper(),
            client=ClientConfig(connections=40),
            fileset_directories=16,
            fault_sample=None,
        )
        return replace(config, **overrides)

    @classmethod
    def scaled(cls, fault_sample=96, connections=16, **overrides):
        """Laptop-scale preset: same structure, compressed time.

        ``fault_sample`` stratified-samples the faultload per fault type;
        fewer connections shrink the event count proportionally.
        """
        config = cls(
            rules=RunRules.scaled(),
            client=ClientConfig(connections=connections),
            fileset_directories=4,
            fault_sample=fault_sample,
        )
        return replace(config, **overrides)

    @classmethod
    def smoke(cls, **overrides):
        """Minimal preset for unit tests."""
        config = cls(
            rules=RunRules(
                warmup_seconds=5.0,
                rampup_seconds=1.0,
                rampdown_seconds=1.0,
                iterations=1,
                slot_seconds=5.0,
                slot_gap_seconds=1.0,
                baseline_seconds=20.0,
            ),
            client=ClientConfig(connections=8),
            fileset_directories=2,
            fault_sample=12,
        )
        return replace(config, **overrides)
