"""Bench: the campaign hot paths.

Four claims, one per layer of the campaign's steady state:

* **Repeat injection** — injecting a fault location whose mutant is
  already in the precompilation cache is >= 5x faster than a cold
  inject (in practice orders of magnitude: the warm path is two dict
  lookups plus the ``__code__`` swap, the cold path re-parses and
  re-compiles the target function).
* **Single-pass scan** — discovering every operator's sites in one
  indexed AST walk is >= 3x faster than the historical one-traversal-
  per-operator scan, for byte-identical output (equivalence is asserted
  in tier-1; here we assert the speed).
* **Zero-overhead dispatch** — with no tracer attached, the API wrapper
  carries *no* tracer reference at all (asserted structurally), so the
  untraced steady state of a campaign pays nothing for the profiling
  instrumentation.
* **Epoch setup** — restoring a warmed-up machine from its snapshot
  (DESIGN.md §12) is >= 5x faster than booting and warming a fresh one,
  which is what makes pristine-per-slot runs (the paper's Fig. 4
  protocol) affordable.

Results are written to ``BENCH_hot_path.json`` at the repo root.  Set
``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job does) to shrink the
workloads and relax the thresholds — smoke mode checks the machinery,
not the numbers.
"""

import json
import os
import sys
import time
from itertools import repeat
from pathlib import Path
from statistics import median

from repro.gswfit.astutils import FunctionImage
from repro.harness.config import ExperimentConfig
from repro.harness.machine import ServerMachine
from repro.harness.snapshot import MachineSnapshot, snapshot_key
from repro.gswfit.cache import clear_mutant_cache
from repro.gswfit.injector import FaultInjector
from repro.gswfit.operators import collect_sites, operator_library
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.profiling.tracer import ApiCallTracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
INJECT_SPEEDUP_FLOOR = 2.0 if SMOKE else 5.0
SCAN_SPEEDUP_FLOOR = 1.2 if SMOKE else 3.0
EPOCH_SPEEDUP_FLOOR = 2.0 if SMOKE else 5.0
INJECT_SLOTS = 12 if SMOKE else 48
# A shared host can switch speed about 2x between two timed legs, so
# the legs alternate: each round times one cold pass (one full mutant
# build per slot) and then its own warm passes, and the ratio is the
# median of the per-round ratios.  A warm pass over 48 slots takes
# about 0.5 ms, so each round's warm leg is the median of many passes.
INJECT_ROUNDS = 7
WARM_PASSES = 40
# One scan round reads anywhere from 2.2x to 3.7x on a shared host, so
# each leg is the median of many interleaved rounds.
SCAN_ROUNDS = 3 if SMOKE else 15
DISPATCH_CALLS = 20_000 if SMOKE else 200_000
EPOCH_BOOT_ROUNDS = 2 if SMOKE else 3
EPOCH_RESTORE_ROUNDS = 3 if SMOKE else 7

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_hot_path.json"
RESULTS = {}


def _fit_functions(build):
    for _display_name, module in build.modules:
        names = list(module.__exports__)
        names.extend(getattr(module, "__internal__", []))
        for name in names:
            yield module, getattr(module, name)


# ----------------------------------------------------------------------
# Repeat injection: warm cache vs cold compile
# ----------------------------------------------------------------------
def test_repeat_injection_speedup(benchmark):
    locations = list(scan_build(NT50))[:INJECT_SLOTS]

    def one_pass(injector):
        for location in locations:
            injector.inject(location)
            injector.restore(location)

    def timed_pass(injector):
        started = time.perf_counter()
        one_pass(injector)
        return time.perf_counter() - started

    def regenerate():
        injector = FaultInjector()
        colds, warms = [], []
        for _ in range(INJECT_ROUNDS):
            clear_mutant_cache()
            colds.append(timed_pass(injector))  # every slot compiles
            # Every slot hits the memo.
            warms.append(median(
                timed_pass(injector) for _ in range(WARM_PASSES)
            ))
        return colds, warms

    colds, warms = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    speedup = median(
        cold / max(warm, 1e-9) for cold, warm in zip(colds, warms)
    )
    cold, warm = median(colds), median(warms)
    slots = len(locations)
    RESULTS["repeat_injection"] = {
        "slots": slots,
        "cold_ms_per_slot": round(cold / slots * 1e3, 4),
        "warm_ms_per_slot": round(warm / slots * 1e3, 4),
        "speedup": round(speedup, 1),
    }
    print()
    print(f"inject: speedup={speedup:.0f}x "
          f"(median of {INJECT_ROUNDS} per-round ratios)")
    print(f"        cold={cold / slots * 1e3:.3f}ms/slot  "
          f"warm={warm / slots * 1e3:.4f}ms/slot (leg medians)")
    assert speedup >= INJECT_SPEEDUP_FLOOR, (
        f"warm injection only {speedup:.1f}x faster than cold"
    )


# ----------------------------------------------------------------------
# Site discovery: single pass vs one traversal per operator
# ----------------------------------------------------------------------
def test_single_pass_scan_speedup(benchmark):
    functions = [
        (module, function)
        for build in (NT50, NT51)
        for module, function in _fit_functions(build)
    ]
    operators = list(operator_library().values())

    def fresh_images():
        # Untimed: parsing is common to both strategies (and a campaign
        # pays it once, through the scan cache).  Fresh images per
        # measurement keep the per-image lazy caches cold.
        return [
            FunctionImage(function, module_name=module.__name__)
            for module, function in functions
        ]

    def described(sites):
        # A site renders its description when first read; a scan reads
        # every one, so both legs do.
        return len(sites), sum(len(site.description) for site in sites)

    def regenerate():
        singles, multis = [], []
        single_work, multi_work = [0, 0], [0, 0]
        for _ in range(SCAN_ROUNDS):
            images = fresh_images()
            started = time.perf_counter()
            for image in images:
                for sites in collect_sites(image, operators).values():
                    count, chars = described(sites)
                    single_work[0] += count
                    single_work[1] += chars
            singles.append(time.perf_counter() - started)
            images = fresh_images()
            started = time.perf_counter()
            for image in images:
                for operator in operators:
                    count, chars = described(operator.find_sites(image))
                    multi_work[0] += count
                    multi_work[1] += chars
            multis.append(time.perf_counter() - started)
        return median(singles), median(multis), (single_work, multi_work)

    single, multi, (single_work, multi_work) = benchmark.pedantic(
        regenerate, rounds=1, iterations=1
    )
    # Same sites and descriptions, both ways.
    assert single_work == multi_work
    speedup = multi / max(single, 1e-9)
    RESULTS["single_pass_scan"] = {
        "functions": len(functions),
        "operators": len(operators),
        "single_pass_ms": round(single * 1e3, 2),
        "per_operator_ms": round(multi * 1e3, 2),
        "speedup": round(speedup, 2),
    }
    print()
    print(f"scan: single-pass={single * 1e3:.1f}ms  "
          f"12-pass={multi * 1e3:.1f}ms  speedup={speedup:.2f}x")
    assert speedup >= SCAN_SPEEDUP_FLOOR, (
        f"single-pass scan only {speedup:.2f}x faster than per-operator"
    )


# ----------------------------------------------------------------------
# Dispatch: the untraced fast path
# ----------------------------------------------------------------------
def test_dispatch_untraced_fast_path(benchmark):
    osi = OsInstance(NT50, SimKernel())
    ctx = osi.new_process()

    def regenerate():
        untraced_call = ctx.api.GetLastError
        started = time.perf_counter()
        for _ in repeat(None, DISPATCH_CALLS):
            untraced_call()
        untraced = time.perf_counter() - started
        tracer = ApiCallTracer()
        osi.attach_tracer(tracer)
        traced_call = ctx.api.GetLastError
        started = time.perf_counter()
        for _ in repeat(None, DISPATCH_CALLS):
            traced_call()
        traced = time.perf_counter() - started
        osi.attach_tracer(None)
        return untraced, traced

    untraced, traced = benchmark.pedantic(regenerate, rounds=1,
                                          iterations=1)
    # The zero-overhead claim is structural, not statistical: the
    # untraced wrapper must contain no tracer reference anywhere.
    wrapper = ctx.api.GetLastError
    cells = [cell.cell_contents for cell in wrapper.__closure__]
    assert not any(isinstance(cell, ApiCallTracer) for cell in cells)
    assert "tracer" not in wrapper.__code__.co_names
    RESULTS["dispatch"] = {
        "calls": DISPATCH_CALLS,
        "untraced_us_per_call": round(untraced / DISPATCH_CALLS * 1e6, 4),
        "traced_us_per_call": round(traced / DISPATCH_CALLS * 1e6, 4),
        "tracing_overhead_pct": round((traced - untraced) / untraced * 100,
                                      1),
    }
    print()
    print(f"dispatch: untraced={untraced / DISPATCH_CALLS * 1e6:.3f}us  "
          f"traced={traced / DISPATCH_CALLS * 1e6:.3f}us per call")
    assert untraced / DISPATCH_CALLS < 50e-6, "dispatch slower than 50us"


# ----------------------------------------------------------------------
# Epoch setup: snapshot restore vs boot + warm-up
# ----------------------------------------------------------------------
def test_epoch_setup_speedup(benchmark):
    """A restored epoch costs a pickle round-trip, not a boot."""
    config = (ExperimentConfig.smoke() if SMOKE
              else ExperimentConfig.scaled())

    def boot_and_warm():
        machine = ServerMachine(config, iteration=1)
        assert machine.boot()
        machine.client.start()
        machine.run_for(
            config.rules.warmup_seconds + config.rules.rampup_seconds
        )
        return machine

    def regenerate():
        boots = []
        for _ in range(EPOCH_BOOT_ROUNDS):
            started = time.perf_counter()
            machine = boot_and_warm()
            boots.append(time.perf_counter() - started)
        snapshot = MachineSnapshot.capture(
            snapshot_key(config, 1), machine
        )
        restores = []
        for _ in range(EPOCH_RESTORE_ROUNDS):
            started = time.perf_counter()
            snapshot.restore()
            restores.append(time.perf_counter() - started)
        return median(boots), median(restores), snapshot.image_bytes

    boot, restore, image_bytes = benchmark.pedantic(
        regenerate, rounds=1, iterations=1
    )
    speedup = boot / max(restore, 1e-9)
    RESULTS["epoch_setup"] = {
        "boot_ms": round(boot * 1e3, 3),
        "restore_ms": round(restore * 1e3, 3),
        "image_kb": round(image_bytes / 1024, 1),
        "speedup": round(speedup, 1),
    }
    print()
    print(f"epoch: boot+warm={boot * 1e3:.1f}ms  "
          f"restore={restore * 1e3:.2f}ms  "
          f"image={image_bytes / 1024:.0f}KB  speedup={speedup:.1f}x")
    assert speedup >= EPOCH_SPEEDUP_FLOOR, (
        f"snapshot restore only {speedup:.1f}x faster than boot+warm-up"
    )


# ----------------------------------------------------------------------
# Emit the checked-in record (runs last in this file)
# ----------------------------------------------------------------------
def test_write_bench_json():
    assert RESULTS, "run the hot-path benches before the JSON writer"
    payload = {
        "bench": "hot_path",
        "python": sys.version.split()[0],
        "smoke": SMOKE,
        **RESULTS,
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
