"""Run-to-run spread of the end-to-end metrics.

    python benchmarks/e2e/spread.py [--out FILE]

Runs ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
once per seed 1..10 for every workload, the way a benchmark gate does,
and prints each end-to-end metric's median, quartiles, n, and its spread
(q3 - q1) / median beside a third of its bound.  A second set repeats
the same seeds and is compared with the first: by how much its median
is worse, as a share of the first set's median.  The summary lists
every spread and every worsening that is over its metric's bound.
``--out`` writes both sets, with the host block of their runs, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, load_json, summarize
from runner import WORKLOADS

SEEDS = range(1, 11)
SETS = 2


def measure(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, check=True)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    host = next(json.loads(line.removeprefix("host: "))
                for line in lines if line.startswith("host: "))
    return values, host


def measure_set(benchmark):
    """Medians, quartiles and spreads of one set of runs."""
    record = {"workloads": {}}
    for workload in WORKLOADS:
        runs, hosts = zip(*(
            measure(workload, seed, benchmark["run_seconds"])
            for seed in SEEDS
        ))
        record["host"] = dict(hosts[-1], calibration_ms=statistics.median(
            host["calibration_ms"] for host in hosts))
        rows = record["workloads"][workload] = {}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            median, q1, q3, n = summarize(run[name] for run in runs)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "n": n,
                          "spread": spread, "unit": metric["unit"]}
            print(f"{workload:10s} {name:12s} {median:12.6g} "
                  f"{metric['unit']:5s} q1 {q1:.6g} q3 {q3:.6g} n={n} "
                  f"spread {spread:.3f} (bound/3 "
                  f"{metric['bound'] / 3:.3f})", flush=True)
    return record


def worse_by(benchmark, first, later):
    """Per workload and metric: how much worse ``later``'s median is than
    ``first``'s, as a share of ``first``'s (negative = better)."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    changes = {}
    for workload, rows in first["workloads"].items():
        for name, row in rows.items():
            base = row["median"]
            delta = later["workloads"][workload][name]["median"] - base
            if better[name] == "higher":
                delta = -delta
            changes.setdefault(workload, {})[name] = delta / base
    return changes


def over_bound(benchmark, record):
    """Every spread and every later-set worsening above its metric's
    bound, as printable lines."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lines = []
    for index, one_set in enumerate(record["sets"]):
        for workload, rows in one_set["workloads"].items():
            for name, row in rows.items():
                if row["spread"] > bounds[name]:
                    lines.append(f"set {index + 1} {workload} {name}: "
                                 f"spread {row['spread']:.3f} > "
                                 f"bound {bounds[name]}")
    for index, changes in enumerate(record["later_median_worse_by"]):
        for workload, rows in changes.items():
            for name, change in rows.items():
                if change > bounds[name]:
                    lines.append(f"set {index + 2} {workload} {name}: "
                                 f"median worse by {change:.3f} > "
                                 f"bound {bounds[name]}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    benchmark = load_json(ROOT / "BENCHMARK.json")
    sets = [measure_set(benchmark) for _ in range(SETS)]
    record = {"runs_per_set": len(SEEDS),
              "run_seconds": benchmark["run_seconds"], "sets": sets,
              "later_median_worse_by": [worse_by(benchmark, sets[0], later)
                                        for later in sets[1:]]}
    over = over_bound(benchmark, record)
    print("over bound:" if over else "over bound: none")
    for line in over:
        print(f"  {line}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
