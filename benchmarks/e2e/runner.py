"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so the in-process
scan, mutant and snapshot caches start cold, as they do for a user's
CLI run.  It writes one JSON result to ``--out`` and prints nothing.

    python runner.py --workload ref --seed 2004 --out R.json --tmp DIR
                     [--trace]
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The campaign workloads as CLI argument lists (README.md says why each
# was chosen).  ``pool`` also journals and exports into the
# repetition's temp dir, see ``campaign_argv``.
CAMPAIGNS = {
    "ref": ["campaign", "--server", "apache", "--os", "nt51",
            "--faults", "48", "--workers", "1", "--no-profile"],
    "pristine": ["campaign", "--server", "abyss", "--os", "nt50",
                 "--faults", "48", "--workers", "1", "--no-profile",
                 "--pristine-slots"],
    "pool": ["campaign", "--server", "apache", "--os", "nt50",
             "--faults", "96", "--workers", "2", "--no-profile",
             "--adaptive-slots"],
}
WORKLOADS = (*CAMPAIGNS, "faultload")

# G-SWFIT steps 1-2 alone, over both OS builds.
SCAN_ROUNDS = 20
WARM_ROUNDS = 3


def campaign_argv(workload, seed, tmp):
    argv = CAMPAIGNS[workload] + [
        "--seed", str(seed), "--manifest", str(tmp / "manifest.json"),
    ]
    if workload == "pool":
        argv += ["--journal", str(tmp / "j.jsonl"),
                 "--export", str(tmp / "out")]
    return argv


def busy_processes(workload):
    """How many processes a repetition of ``workload`` keeps busy."""
    argv = CAMPAIGNS.get(workload, ["--workers", "1"])
    return int(argv[argv.index("--workers") + 1])


def slot_accounting(manifest):
    """``(attempted, failed)`` slots of one campaign run.

    Quarantined slots and slots skipped by ``MutantError`` are both
    planned slots that were never injected.
    """
    attempted = manifest["slots"] * manifest["iterations"]
    return attempted, attempted - manifest["activation"]["faults_injected"]


def run_campaign(workload, seed, tmp):
    import repro.cli

    imported_at = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = repro.cli.main(campaign_argv(workload, seed, tmp))
    manifest = json.loads((tmp / "manifest.json").read_text("utf-8"))
    timings = manifest["phase_timings"]
    attempted, failed = slot_accounting(manifest)
    return {
        "imported_at": imported_at,
        "rc": rc,
        "digest": manifest["metrics_digest"],
        "attempted": attempted,
        "failed": failed,
        "ops": attempted - failed,
        "measured_s": sum(seconds for phase, seconds in timings.items()
                          if phase.startswith("iteration-")),
        "setup_phase_s": sum(timings.get(phase, 0.0) for phase in (
            "prepare", "activation_profile", "warm_mutants")),
        "manifest": manifest,
    }


def _const_bytes(value):
    if isinstance(value, types.CodeType):
        return canonical_code(value)
    if isinstance(value, (tuple, frozenset)):
        items = [_const_bytes(item) for item in value]
        if isinstance(value, frozenset):
            items.sort()
        return (type(value).__name__.encode() + b"("
                + b",".join(items) + b")")
    return repr(value).encode("utf-8")


def canonical_code(code):
    """Bytes that identify a code object's behaviour: ``co_code``,
    ``co_names`` and ``co_consts``, recursing into nested code objects.

    ``marshal`` output is not used: its reference flags depend on
    refcounts, so equal code can marshal differently.
    """
    parts = [code.co_code, repr(code.co_names).encode("utf-8")]
    parts.extend(_const_bytes(const) for const in code.co_consts)
    return b"\x00".join(
        len(part).to_bytes(4, "big") + part for part in parts
    )


def run_faultload(seed):
    from repro.gswfit import cache, scanner
    from repro.gswfit.activation import ActivationTracker
    from repro.gswfit.injector import FaultInjector
    from repro.gswfit.mutator import MutantError, resolve_function
    from repro.ossim.builds import ALL_BUILDS, get_build

    imported_at = time.monotonic()
    builds = [get_build(codename) for codename in sorted(ALL_BUILDS)]
    failed = 0

    started = time.perf_counter()
    reference = None
    for _ in range(SCAN_ROUNDS):
        faultloads = [scanner.scan_build(build) for build in builds]
        fault_ids = [loc.fault_id for fl in faultloads for loc in fl]
        if reference is None:
            reference = fault_ids
        elif fault_ids != reference:
            failed += len(fault_ids)
    scan_s = time.perf_counter() - started
    locations = [loc for faultload in faultloads for loc in faultload]

    started = time.perf_counter()
    for _ in range(WARM_ROUNDS):
        cache.clear_mutant_cache()
        for faultload in faultloads:
            stats = cache.warm_mutant_cache(faultload, probed=True)
            failed += stats["failed"]
    warm_s = time.perf_counter() - started

    order = list(locations)
    random.Random(seed).shuffle(order)
    injector = FaultInjector(
        activation_tracker=ActivationTracker(clock=lambda: 0.0)
    )
    started = time.perf_counter()
    for location in order:
        function = resolve_function(location)
        original = function.__code__
        try:
            injector.inject(location)
            swapped = function.__code__ is not original
            injector.restore(location)
        except (MutantError, ValueError):
            failed += 1
            continue
        if not swapped or function.__code__ is not original:
            failed += 1
    inject_s = time.perf_counter() - started

    digest = hashlib.sha256()
    for location in sorted(locations, key=lambda loc: loc.fault_id):
        digest.update(location.fault_id.encode("utf-8"))
        try:
            _function, code = cache.build_mutant_cached(
                location, probed=True
            )
        except MutantError:
            continue
        digest.update(canonical_code(code))
    attempted = (SCAN_ROUNDS + WARM_ROUNDS + 1) * len(locations)
    return {
        "imported_at": imported_at,
        "rc": 0,
        "digest": digest.hexdigest(),
        "attempted": attempted,
        "failed": failed,
        "ops": attempted - failed,
        "measured_s": scan_s + warm_s + inject_s,
        "setup_phase_s": 0.0,
        "manifest": None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install(args.tmp)
    if args.workload == "faultload":
        result = run_faultload(args.seed)
    else:
        result = run_campaign(args.workload, args.seed, args.tmp)
    if tracer is not None:
        tracer.write()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
