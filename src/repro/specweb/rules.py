"""Benchmark run rules.

SPECWeb99 mandates a 1200 s warm-up, ramp-up/ramp-down intervals of 300 s
and at least three measured iterations of at least 1200 s each; the paper
keeps those rules and slices the measured time into fault-injection slots.
Running at full paper scale takes minutes of host CPU per iteration, so
:class:`RunRules` exposes the durations as data with two presets:
``paper()`` (the durations above) and ``scaled()`` (the default used by
tests and benches — same structure, compressed time).
"""

from dataclasses import dataclass

__all__ = ["CONFORMANCE_SLOTS", "RunRules"]

# SPECWeb99 judges connection conformance over whole measurement
# batches; we group this many consecutive slots per conformance batch.
CONFORMANCE_SLOTS = 6


@dataclass(frozen=True)
class RunRules:
    """Timing structure of one benchmark run."""

    warmup_seconds: float = 20.0
    rampup_seconds: float = 5.0
    rampdown_seconds: float = 5.0
    iterations: int = 3
    # Fault-slot structure (Fig. 4 of the paper): each fault is active for
    # ``slot_seconds`` of exercised workload; between slots there is a
    # short injection-free, workload-free gap used for cleanup checks.
    slot_seconds: float = 10.0
    slot_gap_seconds: float = 2.0
    # Baseline/profile runs measure this much workload time per iteration.
    baseline_seconds: float = 120.0

    @classmethod
    def paper(cls):
        """The durations mandated by SPECWeb99 / used in the paper."""
        return cls(
            warmup_seconds=1200.0,
            rampup_seconds=300.0,
            rampdown_seconds=300.0,
            iterations=3,
            slot_seconds=10.0,
            slot_gap_seconds=2.0,
            baseline_seconds=1200.0,
        )

    @classmethod
    def scaled(cls):
        """Compressed rules for laptop-scale runs (structure preserved)."""
        return cls(
            warmup_seconds=20.0,
            rampup_seconds=5.0,
            rampdown_seconds=5.0,
            iterations=3,
            slot_seconds=10.0,
            slot_gap_seconds=2.0,
            baseline_seconds=120.0,
        )
