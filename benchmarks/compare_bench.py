"""Compare two bench records and fail on regression.

CI uses this for two gates:

* **bench-regression** — ``BENCH_hot_path.json``: the checked-in record
  is the baseline, the record the bench job just produced is the
  candidate, and a drop of more than ``--tolerance`` (default 30%) in
  either tracked speedup fails the build.
* **activation-gate** — ``BENCH_activation.json``: the fine-tuned
  campaign's overall fault-activation rate must not drop more than
  ``--tolerance`` below the recorded floor.

It also understands ``BENCH_fabric.json`` (fabric loopback scaling),
wired into the same bench-regression job.

Under each hot-path ratio the script also prints the ratio's two
recorded legs, baseline -> fresh (cold and warm ms per slot, per-operator
and single-pass ms, boot and restore ms), so a reader can tell a slower
warm path from a faster cold one.  The legs are never gated.

Speedups are ratios (warm vs cold on the *same* host) and activation
rates are workload facts, so both are largely machine-independent —
which is what makes a cross-host comparison against a checked-in record
meaningful at all.  Records taken in different modes (smoke vs full)
are *not* comparable: smoke mode shrinks the workloads below the
metrics' stable regime, so the script refuses the comparison instead of
producing noise.

A *missing*, unparseable, or older-schema **baseline** is a warning,
not a failure: the gate degrades to "nothing to compare against" (exit
0) so a freshly added bench — whose record lands in the same PR — does
not fail CI before its baseline exists.  A broken **fresh** record is
always a failure: the bench that just ran must produce its metrics.

Usage::

    python benchmarks/compare_bench.py baseline.json fresh.json
"""

import argparse
import json
import sys

# bench kind -> (section, key, label) for every metric that kind gates
# on.  Lower values fail; all tracked metrics are higher-is-better.
BENCH_KINDS = {
    "hot_path": [
        ("repeat_injection", "speedup", "warm-inject speedup"),
        ("single_pass_scan", "speedup", "single-pass-scan speedup"),
        ("epoch_setup", "speedup", "epoch restore speedup"),
    ],
    "activation": [
        ("activation", "rate", "fine-tuned activation rate"),
    ],
    "fabric": [
        ("fabric_scaling", "speedup",
         "fabric 4-worker loopback speedup"),
    ],
}


# The two recorded legs of each hot-path ratio: numerator, denominator.
RATIO_LEGS = {
    "repeat_injection": ("cold_ms_per_slot", "warm_ms_per_slot"),
    "single_pass_scan": ("per_operator_ms", "single_pass_ms"),
    "epoch_setup": ("boot_ms", "restore_ms"),
}


def load_record(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(tracked, baseline, fresh, tolerance):
    """Returns a list of (label, base, new, ok) rows."""
    rows = []
    for section, key, label in tracked:
        base = baseline.get(section, {}).get(key)
        new = fresh.get(section, {}).get(key)
        if base is None or new is None:
            rows.append((label, base, new, False))
            continue
        floor = base * (1.0 - tolerance)
        rows.append((label, base, new, new >= floor))
    return rows


def _leg(record, section, key):
    value = record.get(section, {}).get(key)
    return "missing" if value is None else f"{value:g}"


def _warn_skip(reason):
    print(f"WARNING: {reason} — skipping bench comparison",
          file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in bench record")
    parser.add_argument("fresh", help="record from the current build")
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional drop before failing (default: 0.30)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_record(args.baseline)
    except FileNotFoundError:
        return _warn_skip(f"baseline record {args.baseline!r} not found")
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as error:
        return _warn_skip(
            f"baseline record {args.baseline!r} unreadable ({error})"
        )
    if not isinstance(baseline, dict):
        return _warn_skip(
            f"baseline record {args.baseline!r} is not a JSON object"
        )

    fresh = load_record(args.fresh)
    kind = fresh.get("bench")
    tracked = BENCH_KINDS.get(kind)
    if tracked is None:
        print(f"unknown bench kind {kind!r} in fresh record "
              f"(expected one of {sorted(BENCH_KINDS)})", file=sys.stderr)
        return 2
    if baseline.get("bench") != kind:
        # Pre-"bench"-field records and records of another kind alike:
        # an older schema is a stale floor, not a regression.
        return _warn_skip(
            f"baseline record {args.baseline!r} is not a {kind!r} bench "
            f"(bench={baseline.get('bench')!r}; older schema?)"
        )
    if baseline.get("smoke") != fresh.get("smoke"):
        print(
            "bench records not comparable: one is a smoke run "
            f"(baseline smoke={baseline.get('smoke')}, "
            f"fresh smoke={fresh.get('smoke')})",
            file=sys.stderr,
        )
        return 2

    rows = compare(tracked, baseline, fresh, args.tolerance)
    failed = False
    for (section, _key, _label), (label, base, new, ok) in zip(
            tracked, rows):
        if base is None:
            print(f"WARNING: {label} missing from baseline record — "
                  f"skipped", file=sys.stderr)
            continue
        if new is None:
            print(f"FAIL {label}: missing from fresh record")
            failed = True
            continue
        delta = (new - base) / base * 100.0
        status = "ok" if ok else "REGRESSION"
        print(f"{status:>10}  {label}: {base:.4g} -> {new:.4g} "
              f"({delta:+.1f}%)")
        for leg in RATIO_LEGS.get(section, ()):
            print(f"{'':>10}    {leg}: "
                  f"{_leg(baseline, section, leg)} -> "
                  f"{_leg(fresh, section, leg)}")
        failed = failed or not ok
    if failed:
        print(
            f"bench regression beyond {args.tolerance:.0%} tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
