"""Experiment configuration.

One :class:`ExperimentConfig` describes a full benchmark campaign for one
server/OS pair: workload scale, run rules, the slot protocol's variants,
and the knobs that trade fidelity for host time (connection count,
faultload subsampling).  Model constants that nothing varies live next
to the code that uses them: the watchdog thresholds in
:class:`~repro.harness.watchdog.Watchdog`, the server CPU in
:mod:`repro.webservers.runtime`, the injector's CPU share in
:mod:`repro.harness.machine`, the conformance batch in
:mod:`repro.specweb.rules` and the activation-deadline fractions in
:mod:`repro.harness.experiment`.

``paper_scale()`` reproduces the paper's parameters; ``scaled()`` (the
default) preserves the structure at laptop cost.
"""

from dataclasses import dataclass, field, replace

from repro.specweb.client import ClientConfig
from repro.specweb.rules import CONFORMANCE_SLOTS, RunRules

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

    # Fault application cadence: each fault stays injected for one slot
    # (rules.slot_seconds, 10 s in the paper).
    fault_sample: int | None = None  # None = full faultload

    # Slots per shard: the slots one machine runs, seeded from (seed,
    # shard index), so the shard size shapes the results and belongs to
    # the campaign key.  A sequential batch is a shard (DESIGN.md §14).
    # Default: one conformance batch.
    slots_per_shard: int = CONFORMANCE_SLOTS

    # Slot-gap state-integrity auditing (DESIGN.md §10): after each
    # fault is removed, audit the machine for residual damage; on
    # contamination perform a verified reboot, at most ``reboot_budget``
    # times per slot run (budget exhausted = keep running, keep
    # flagging).
    integrity_audit: bool = True
    reboot_budget: int = 2

    # Paper-faithful Fig. 4 isolation: retire and replace the machine
    # after *every* slot, so no fault can see another fault's residue
    # even in principle.  Changes the measured timeline (each slot
    # starts at the post-warm-up instant), so it is an explicit opt-in
    # (--pristine-slots); affordable because every replacement machine
    # is an epoch-snapshot restore (DESIGN.md §12).
    pristine_slots: bool = False

    # False = control run: walk the full slot protocol with the injector
    # attached in profile mode but no code swapped.  Any integrity
    # violation reported in such a run is an auditor false positive —
    # the parity harness's no-inject rows rely on this.
    inject_faults: bool = True

    # Adaptive slot scheduling: truncate a slot once the faulted
    # function's activation deadline passes with zero probe hits.  Off by
    # default — changes observed windows, so it is an explicit opt-in
    # (--adaptive-slots).
    adaptive_slots: bool = False

    # function name -> activation deadline in seconds from slot start,
    # derived from a deterministic profiling trace by the campaign parent
    # (before the campaign key is computed, so all workers share it).
    # None = no table; every function then gets the floor.
    activation_deadlines: dict | None = None

    # Length of the profiling trace used to derive the deadline table.
    activation_profile_seconds: float = 20.0

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

    # Per-stratum floor: never stop on confidence before this many
    # slots.  None = two shards (the minimum that yields a variance).
    sequential_min_slots: int | None = None

    # Per-stratum ceiling: stop after this many slots even without
    # convergence.  None = the stratum's full planned size.
    sequential_max_slots: int | None = None

    # Declarative operator specs (DESIGN.md §16): a tuple of *canonical*
    # spec dicts, installed into the operator registry by the campaign
    # parent and by every worker before scanning (the config pickles to
    # them, so forked fabric workers see the same library).
    # Part of ``asdict()``, hence of the campaign key — and each spec's
    # canonical JSON is the operator's cache fingerprint, so scan and
    # mutant caches stay sound across spec edits.  None = built-ins only.
    operator_specs: tuple | None = None

    def resolved_sequential_min_slots(self):
        """The effective per-stratum slot floor (>= two shards)."""
        if self.sequential_min_slots is not None:
            return int(self.sequential_min_slots)
        return 2 * self.slots_per_shard

    def iteration_seed(self, iteration):
        """Seed for one iteration: same workload family, fresh draws."""
        return self.seed * 1_000 + iteration

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
