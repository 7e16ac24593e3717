"""Bench: sequential statistical injection vs exhaustive execution.

The claim (ROADMAP item 1, DESIGN.md §14): on the nt51 build a
sequential campaign reaches every reachable target interval while
executing **>= 30% fewer slots** than the exhaustive run of the same
faultload — at fixed metric error, meaning the sequential estimates of
the tracked derived metrics stay inside the configured confidence band
of the exhaustive values.  The slot reduction is recorded in
``BENCH_sequential.json`` for the bench-regression gate, and digest
parity between worker counts is asserted inline (the tier-1 parity
harness, ``tests/harness/test_parity.py``, re-checks it across backends
and resumes on every push).
"""

import json
import os
import sys
import time
from pathlib import Path

from _bench_common import bench_config

from repro.harness.campaign import ParallelCampaign

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SEQUENTIAL_WORKERS = max(2, min(4, os.cpu_count() or 2))
# The acceptance floor: the sequential campaign must skip at least this
# fraction of the exhaustive slot count.
REDUCTION_FLOOR = 0.30
CI_TARGET = 0.2
# The sequential estimate of every tracked metric must stay within this
# relative band of the exhaustive value.  The per-stratum intervals are
# built at CI_TARGET; the campaign-level aggregate re-weights strata by
# executed (not planned) slots, so the band is the interval target plus
# that mix shift — everything below is deterministic for a fixed seed.
ERROR_CEILING = 2.0 * CI_TARGET
BENCH_SEQUENTIAL_JSON = (
    Path(__file__).resolve().parent.parent / "BENCH_sequential.json"
)


def _sequential_config(sequential):
    config = bench_config("apache", "nt51")
    config.rules = type(config.rules)(
        warmup_seconds=5.0, rampup_seconds=2.0, rampdown_seconds=2.0,
        iterations=1, slot_seconds=6.0, slot_gap_seconds=2.0,
        baseline_seconds=30.0,
    )
    # Full faultload: the exhaustive baseline the paper's methodology
    # would brute-force.  Smoke mode keeps the shape at a fraction of
    # the cost (not comparable to full records — compare_bench refuses).
    config.fault_sample = 96 if SMOKE else None
    config.sequential = sequential
    if sequential:
        config.ci_target = CI_TARGET
        config.slots_per_shard = 4
    return config


def _run(sequential, workers):
    campaign = ParallelCampaign(
        _sequential_config(sequential), workers=workers
    )
    started = time.perf_counter()
    result = campaign.run(
        include_baseline=False, include_profile_mode=False
    )
    return result, campaign.manifest, time.perf_counter() - started


def _relative_error(reference, value):
    """The stopping rule's own distance: relative with a 1.0 floor."""
    return abs(reference - value) / max(abs(reference), 1.0)


def test_sequential_slot_reduction(benchmark):
    def regenerate():
        exhaustive = _run(sequential=False, workers=SEQUENTIAL_WORKERS)
        serial = _run(sequential=True, workers=1)
        parallel = _run(sequential=True, workers=SEQUENTIAL_WORKERS)
        return exhaustive, serial, parallel

    (
        (exhaustive, exhaustive_manifest, exhaustive_s),
        (_serial, serial_manifest, _serial_s),
        (sequential, sequential_manifest, sequential_s),
    ) = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    block = sequential_manifest.sequential
    planned = block["planned_slots"]
    executed = block["executed_slots"]
    reduction = 1.0 - executed / planned
    assert planned == exhaustive_manifest.slots

    # Digest parity: the executed slot set (and hence the digest) is a
    # pure function of the stopping schedule, not of the worker count.
    assert serial_manifest.metrics_digest == (
        sequential_manifest.metrics_digest
    ), "sequential digest diverged across worker counts"
    assert serial_manifest.sequential == block

    # Every stratum reached a principled stop: its target interval, or
    # the end of its planned slots (where the exhaustive run has no
    # more information either).
    reasons = {
        reason
        for per_iteration in block["stop_reasons"].values()
        for reason in per_iteration
    }
    assert reasons <= {"confidence", "exhausted"}, reasons
    assert "confidence" in reasons, (
        "no stratum stopped on confidence — stopping rule never fired"
    )

    # Fixed metric error: the sequential estimates sit inside the error
    # band of the exhaustive values.
    a = exhaustive.iterations[0]
    b = sequential.iterations[0]
    errors = {
        "SPCf": _relative_error(a.metrics.spc, b.metrics.spc),
        "THRf": _relative_error(a.metrics.thr, b.metrics.thr),
        "RTMf": _relative_error(a.metrics.rtm_ms, b.metrics.rtm_ms),
        "ER%f": _relative_error(
            a.metrics.er_percent, b.metrics.er_percent
        ),
        "ADMf": _relative_error(
            a.admf / exhaustive_manifest.slots, b.admf / max(executed, 1)
        ),
    }
    max_error = max(errors.values())

    print()
    print(f"sequential injection on nt51: {executed} of {planned} "
          f"slot(s) executed ({100 * reduction:.1f}% fewer), "
          f"exhaustive {exhaustive_s:.1f}s -> sequential "
          f"{sequential_s:.1f}s, max metric error "
          f"{max_error:.3f} (ceiling {ERROR_CEILING})")

    payload = {
        "bench": "sequential",
        "python": sys.version.split()[0],
        "smoke": SMOKE,
        "sequential_injection": {
            "os": "nt51",
            "ci_target": CI_TARGET,
            "batch_slots": 4,
            "planned_slots": planned,
            "executed_slots": executed,
            "slot_reduction_percent": round(100.0 * reduction, 3),
            "max_metric_error": round(max_error, 6),
            "wall_seconds_exhaustive": round(exhaustive_s, 3),
            "wall_seconds_sequential": round(sequential_s, 3),
            "errors": {key: round(value, 6)
                       for key, value in errors.items()},
        },
    }
    BENCH_SEQUENTIAL_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    assert max_error <= ERROR_CEILING, (
        f"sequential estimates drifted {max_error:.3f} from the "
        f"exhaustive values (ceiling {ERROR_CEILING}): {errors}"
    )
    if not SMOKE:
        assert reduction >= REDUCTION_FLOOR, (
            f"sequential campaign executed only {100 * reduction:.1f}% "
            f"fewer slots (floor {100 * REDUCTION_FLOOR:.0f}%)"
        )
    else:
        # Smoke strata are a handful of batches each; just require the
        # mechanism to have skipped something.
        assert executed < planned
