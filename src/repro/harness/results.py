"""Result records for benchmark campaigns."""

from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add

__all__ = [
    "BenchmarkResult",
    "InjectionIteration",
    "SlotTally",
    "average_iterations",
]


def _sorted_records(parts):
    # Records from a live run carry insertion key order, records
    # replayed from a journal come back in sort_keys order: normalize so
    # a resumed run's campaign.json is byte-identical to a live one's.
    return [dict(sorted(record.items())) for part in parts for record in part]


def _summed_stats(parts):
    stats = {}
    for part in parts:
        for key, value in part.items():
            stats[key] = stats.get(key, 0) + value
    return dict(sorted(stats.items()))


# How each field type combines when tallies merge.  Floats add left to
# right, as ``sum()`` does only before Python 3.12.
_MERGE_RULES = {
    int: sum,
    bool: any,
    float: lambda parts: round(reduce(add, parts, 0), 6),
    list: _sorted_records,
    dict: _summed_stats,
}


@dataclass(kw_only=True)
class SlotTally:
    """The accounting of a run of injection slots.

    Declared once and inherited by the slot walk
    (:class:`~repro.harness.experiment.SlotRunResult`), the shard
    (:class:`~repro.harness.campaign.ShardOutcome`) and the iteration
    (:class:`InjectionIteration`); :meth:`merge` is the one way any of
    them combine.
    """

    # Table 5's administrator interventions, and the slots whose fault
    # was actually injected (a ``MutantError`` skips a slot).
    mis: int = 0
    kns: int = 0
    kcp: int = 0
    faults_injected: int = 0
    # Server runtime counters (crashes, restarts, responses, ...).
    runtime_stats: dict = field(default_factory=dict)
    # Watchdog incidents: {"kind": "MIS"|"KNS"|"KCP"|"RESTART_EXHAUSTED",
    # "t": sim_time}, ordered by slot then sim time.
    incidents: list = field(default_factory=list)
    # Integrity protocol (DESIGN.md §10): per-slot contamination records
    # ({"slot", "fault_id", "kinds", "violations", "rebooted"}), the
    # verified-reboot log ({"after_slot", "verified"}), and whether
    # auditing ran at all (False = RES is unknowable, not zero).
    contaminated_slots: list = field(default_factory=list)
    reboots: list = field(default_factory=list)
    integrity_enabled: bool = False
    # Activation telemetry (DESIGN.md §11): per-slot probe records
    # ({"slot", "fault_id", "hits", "first_hit", "truncated"}), the
    # activated/truncated totals, and whether tracking ran at all
    # (False = ACT% is unknowable, not zero).
    activations: list = field(default_factory=list)
    faults_activated: int = 0
    slots_truncated: int = 0
    truncated_seconds: float = 0.0
    activation_enabled: bool = False
    # Epoch setup (DESIGN.md §12): machine epochs booted vs restored
    # from a snapshot, and per-slot pristine restarts.  Diagnostic —
    # outside the metrics digest, which is identical either way.
    epochs_booted: int = 0
    epochs_restored: int = 0
    pristine_restarts: int = 0

    @classmethod
    def merge(cls, tallies, **extra):
        """A ``cls`` holding ``tallies`` combined, plus ``extra`` fields.

        Counts are summed and flags OR-ed; record lists concatenate in
        the given order (callers pass slot order) with each record's
        keys sorted; runtime stats sum per key, keys sorted; simulated
        seconds round to 6 places.
        """
        tallies = list(tallies)
        merged = {
            spec.name: _MERGE_RULES[spec.type](
                [getattr(tally, spec.name) for tally in tallies]
            )
            for spec in fields(SlotTally)
        }
        return cls(**merged, **extra)


@dataclass
class InjectionIteration(SlotTally):
    """One full pass over the faultload (one of the paper's iterations),
    with its machine's ``metrics_type`` as ``metrics``."""

    iteration: int
    metrics: object

    @property
    def admf(self):
        return self.mis + self.kns + self.kcp

    @property
    def residual_errors(self):
        """Slots measured on a state-damaged machine (None = not audited)."""
        if not self.integrity_enabled:
            return None
        return len(self.contaminated_slots)

    @property
    def activation_rate(self):
        """Fraction of injected faults whose code ran (None = untracked)."""
        if not self.activation_enabled or not self.faults_injected:
            return None
        return self.faults_activated / self.faults_injected

    def as_row(self):
        """The paper's Table 5 row shape (plus the RES audit column)."""
        rate = self.activation_rate
        return {
            "SPC": self.metrics.spc,
            "THR": self.metrics.thr,
            "RTM": self.metrics.rtm_ms,
            "ER%": self.metrics.er_percent,
            "MIS": self.mis,
            "KCP": self.kcp,
            "KNS": self.kns,
            "RES": self.residual_errors,
            "ACT%": None if rate is None else rate * 100.0,
        }


@dataclass
class BenchmarkResult:
    """Everything measured for one server/OS pair."""

    server_name: str
    os_codename: str
    os_display: str
    baseline: object = None
    profile_mode: object = None
    iterations: list = field(default_factory=list)
    # Supervised execution: True when at least one shard was quarantined
    # (its slots are missing from the merged metrics); the quarantine
    # list records each poisoned shard with its iteration and fault ids.
    degraded: bool = False
    quarantine: list = field(default_factory=list)
    # Sequential-sampling accounting (DESIGN.md §14): the campaign's
    # ``sequential`` block — stopping schedule, per-stratum stopping
    # points, interval trajectories, slots skipped.  Diagnostic, and
    # deliberately excluded from the metrics digest: the decisions are
    # reflected in which slots ran, not hashed themselves.
    sequential: dict = field(default_factory=dict)

    def average_row(self):
        return average_iterations(self.iterations)

    def add_iteration(self, iteration_result):
        self.iterations.append(iteration_result)

    def __repr__(self):
        return (
            f"BenchmarkResult({self.server_name} on {self.os_display}, "
            f"iterations={len(self.iterations)})"
        )


def average_iterations(iterations):
    """Average the Table 5 row values over iterations (paper's last row).

    ``RES`` and ``ACT%`` are None for unaudited/untracked iterations;
    each averages over the iterations that report it and stays None when
    there are none.
    """
    if not iterations:
        return {}
    keys = ["SPC", "THR", "RTM", "ER%", "MIS", "KCP", "KNS"]
    totals = {key: 0.0 for key in keys}
    optional = {"RES": [0.0, 0], "ACT%": [0.0, 0]}
    for iteration in iterations:
        row = iteration.as_row()
        for key in keys:
            totals[key] += row[key]
        for key, bucket in optional.items():
            if row.get(key) is not None:
                bucket[0] += row[key]
                bucket[1] += 1
    count = len(iterations)
    averaged = {key: value / count for key, value in totals.items()}
    for key, (total, seen) in optional.items():
        averaged[key] = total / seen if seen else None
    return averaged
