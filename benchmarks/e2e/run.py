"""End-to-end campaign benchmark.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed S]
                                 [--seconds T] [--repeat N] [--trace [0|1]]

Runs every repetition of every chosen workload (default: all four) in a
fresh ``runner.py`` subprocess, checks each repetition's output digest,
and prints every metric by name and unit as a median with q1/q3 and n;
end-to-end times are scaled to the reference host speed (``SpeedProbe``).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` or, with
``--trace 1``, its ``per_layer`` metrics.  A run makes at least
``--repeat`` repetitions (with ``--trace 1``: that many untraced and
that many traced ones) and keeps starting more while the longest one
so far still fits in ``--seconds``.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from runner import WORKLOADS, busy_processes  # noqa: E402

DEFAULT_SEED = 2004
# A repetition that outlives this is killed and fails all its operations.
REPETITION_LIMIT_S = 150
CALIBRATION_ROUNDS = 10
# The host-speed probe (SpeedProbe): its loop, how often it runs, and
# its thread CPU time on the reference host at full speed.
PROBE_LOOP = 100_000
PROBE_PERIOD_S = 0.25
PROBE_REFERENCE_S = 0.007
CPUS = (sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else [])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values):
    """``(median, q1, q3, n)`` with the quartiles of
    ``statistics.quantiles(values, n=4)``; one value is its own
    quartiles."""
    values = list(values)
    if not values:
        raise ValueError("no values to summarize")
    median = statistics.median(values)
    if len(values) == 1:
        return median, median, median, 1
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_digests(reps, pin):
    """Mark each repetition's digest ``ok`` and return the reference.

    With a pin, every repetition must match it.  Without one (a seed the
    pins do not cover) the repetitions must agree with the first that
    has a digest.  A repetition whose runner failed has none.
    """
    expected = pin
    if expected is None:
        expected = next((rep["digest"] for rep in reps
                         if rep["digest"] is not None), None)
    for rep in reps:
        rep["digest_ok"] = (rep["digest"] is not None
                            and rep["digest"] == expected)
    return expected


def failed_operations(rep):
    """A repetition whose digest is wrong fails every operation."""
    if not rep["digest_ok"] or rep["rc"] != 0:
        return rep["attempted"]
    return rep["failed"]


def pin_for(pins, workload, seed):
    entry = pins.get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["digest"]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def layer_metrics(table, manifest):
    """Per-layer metrics of one traced repetition from its merged span
    table and (for campaigns) its run manifest."""
    span_table = table["spans"]
    counters = table["counters"]
    manifest = manifest or {}

    def calls(name):
        return span_table.get(name, {}).get("calls", 0)

    def total(name):
        return span_table.get(name, {}).get("total", 0.0)

    def count(name):
        return counters.get(name, 0)

    integrity = manifest.get("integrity", {})
    supervision = manifest.get("supervision", {})
    executed = manifest.get("activation", {}).get("faults_injected", 0)
    bringup = total("experiment.boot") + total("experiment.restore")
    hits, misses = count("snapshot.hits"), count("snapshot.misses")
    return {
        "scanner.calls": calls("scanner"),
        "scanner.s": total("scanner"),
        "scanner.locations": count("scanner.locations"),
        "scanner.locations_per_s": _ratio(
            count("scanner.locations"), total("scanner")),
        "cache.mutant_compiles": calls("cache.build_mutant"),
        "cache.mutant_hits": (calls("cache.lookup")
                              - calls("cache.build_mutant")),
        "cache.warm_s": total("cache.warm"),
        "cache.build_mutant_s": total("cache.build_mutant"),
        "cache.mutants_per_s": _ratio(
            calls("cache.build_mutant"), total("cache.build_mutant")),
        "injector.injects": calls("injector.inject"),
        "injector.inject_s": total("injector.inject"),
        "injector.restores": calls("injector.restore"),
        "injector.restore_s": total("injector.restore"),
        "injector.errors": (count("injector.inject.errors")
                            + count("injector.restore.errors")),
        "experiment.boots": calls("experiment.boot"),
        "experiment.boot_s": total("experiment.boot"),
        "experiment.restores": count("experiment.restores"),
        "experiment.restore_s": total("experiment.restore"),
        "experiment.baseline_s": total("experiment.baseline"),
        "experiment.bringup_share": _ratio(
            bringup, total("campaign.shard")),
        "snapshot.captures": calls("snapshot.capture"),
        "snapshot.capture_s": total("snapshot.capture"),
        "snapshot.restores": calls("snapshot.restore"),
        "snapshot.restore_s": total("snapshot.restore"),
        "snapshot.image_kb": _ratio(
            count("snapshot.image_bytes") / 1024,
            calls("snapshot.capture")),
        "snapshot.hit_ratio": _ratio(hits, hits + misses),
        "sim.events": count("sim.events"),
        "sim.self_s": span_table.get("sim", {}).get("self", 0.0),
        "sim.events_per_s": _ratio(count("sim.events"), total("sim")),
        "sim.speed": _ratio(count("sim.seconds"), total("sim")),
        "dispatch.api_calls": count("dispatch.api_calls"),
        "dispatch.api_calls_per_slot": _ratio(
            count("dispatch.api_calls"), executed),
        "server.requests": calls("server.handle"),
        "server.handle_s": total("server.handle"),
        "server.crashes": count("server.crashes"),
        "server.restarts": count("server.restarts"),
        "client.ops": count("client.ops"),
        "client.errors": count("client.errors"),
        "client.compute_s": total("client.compute"),
        "integrity.audits": calls("integrity.audit"),
        "integrity.audit_s": total("integrity.audit"),
        "integrity.contaminated": integrity.get("contaminated_slots", 0),
        "integrity.reboots": integrity.get("reboots", 0),
        "watchdog.checks": calls("watchdog.check"),
        "watchdog.check_s": total("watchdog.check"),
        "supervisor.run_s": total("supervisor.run"),
        "supervisor.shards": calls("campaign.shard"),
        "supervisor.retries": supervision.get("retries", 0),
        "supervisor.utilisation": _ratio(
            total("campaign.shard"),
            manifest.get("workers", 1) * total("supervisor.run")),
        "campaign.activation_profile_s": total(
            "campaign.activation_profile"),
        "campaign.shard_s": total("campaign.shard"),
        "campaign.journal_writes": calls("campaign.journal"),
        "campaign.journal_s": total("campaign.journal"),
        "campaign.merge_s": total("campaign.merge"),
        "telemetry.digest_s": total("telemetry.digest"),
        "telemetry.manifest_s": total("telemetry.manifest"),
        "reporting.export_s": total("reporting.export"),
        "reporting.table_s": total("reporting.table"),
    }


def metric_series(untraced, traced):
    """Every metric's per-repetition values: the end-to-end ones from the
    untraced repetitions, the per-layer ones from the traced ones.  A
    repetition whose runner failed measured nothing and is left out.

    End-to-end times are scaled to the reference host speed by each
    repetition's ``speed`` (see ``SpeedProbe``); per-layer ones are not.
    """
    untraced = [rep for rep in untraced if rep["digest"] is not None]
    traced = [rep for rep in traced if rep["digest"] is not None]
    if not untraced:
        return {}
    series = {
        "ops_per_s": [rep["ops"] / (rep["measured_s"] * rep["speed"])
                      for rep in untraced],
        "wall_s": [rep["wall_s"] * rep["speed"] for rep in untraced],
        "setup_s": [rep["setup_s"] * rep["speed"] for rep in untraced],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
    }
    if traced:
        for name in traced[0]["layers"]:
            series[name] = [rep["layers"][name] for rep in traced]
        untraced_wall = statistics.median(series["wall_s"])
        traced_wall = statistics.median(rep["wall_s"] * rep["speed"]
                                        for rep in traced)
        series["trace.overhead_pct"] = [
            100.0 * (traced_wall - untraced_wall) / untraced_wall
        ]
    return series


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
def probe_loop():
    """Thread CPU seconds of a fixed pure-Python loop."""
    started = time.thread_time()
    total = 0
    for value in range(PROBE_LOOP):
        total += value * value % 7
    return time.thread_time() - started


class SpeedProbe:
    """How fast the host runs while a repetition runs.

    The benchmark's reference host is a 2-vCPU KVM guest whose CPUs run
    up to twice as slow for minutes at a time, with no steal time to
    show for it, so a repetition's CPU time slows exactly as its wall
    time does.  A thread pinned to the repetition's ``cpus`` times
    ``probe_loop`` every ``PROBE_PERIOD_S`` (about 3% of one CPU);
    ``speed`` is ``PROBE_REFERENCE_S`` over the median sample, so a time
    times ``speed`` is that time at the reference speed.  Thread CPU
    time leaves out the waits for the CPU the repetition holds.
    """

    def __init__(self, cpus=()):
        self.cpus = cpus
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        pin(0, self.cpus)
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(probe_loop())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *_exc):
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(probe_loop())

    def speed(self):
        return PROBE_REFERENCE_S / statistics.median(self.samples)


def repetition_cpus(workload):
    """The CPUs a repetition of ``workload`` and its probe run on: one
    per process it keeps busy."""
    return CPUS[:busy_processes(workload)]


def pin(pid, cpus):
    """Keep process ``pid`` (0: the calling thread), and what it starts
    later, on ``cpus``; no CPUs leaves it where it is."""
    if cpus:
        os.sched_setaffinity(pid, cpus)


def calibration_ms():
    """``probe_loop`` in ms, the median of a few rounds."""
    return 1000.0 * statistics.median(
        probe_loop() for _ in range(CALIBRATION_ROUNDS)
    )


def host_block():
    """Where a result was measured: informational, no gate reads it."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "calibration_ms": calibration_ms(),
    }


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def runner_result(out, returncode, planned):
    """The result ``runner.py`` wrote to ``out``; for a runner that
    failed, a record with no digest that fails every ``planned``
    operation."""
    if returncode == 0 and out.exists():
        return json.loads(out.read_text(encoding="utf-8"))
    return {"rc": returncode or 1, "digest": None,
            "attempted": planned, "failed": planned}


def spawn_runner(workload, seed, tmp, planned, trace=False):
    """Run ``runner.py`` in a session of its own; returns its result
    with its wall time, set-up time, host speed and peak RSS (over the
    runner and every pool worker it reaped) filled in."""
    tmp.mkdir(parents=True)
    out = tmp / "result.json"
    command = [sys.executable, str(HERE / "runner.py"),
               "--workload", workload, "--seed", str(seed),
               "--out", str(out), "--tmp", str(tmp)]
    if trace:
        command.append("--trace")
    cpus = repetition_cpus(workload)
    with SpeedProbe(cpus) as probe:
        spawned_at = time.monotonic()
        # A process group of its own, so a hung runner is killed with
        # its pool workers.
        process = subprocess.Popen(command, cwd=ROOT,
                                   stdout=subprocess.DEVNULL,
                                   start_new_session=True)
        pin(process.pid, cpus)
        killer = threading.Timer(REPETITION_LIMIT_S, os.killpg,
                                 (process.pid, signal.SIGKILL))
        killer.start()
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        finally:
            killer.cancel()
        ended_at = time.monotonic()
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        # A runner that died may leave pool workers behind.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
    result = runner_result(out, process.returncode, planned)
    result["wall_s"] = ended_at - spawned_at
    result["speed"] = probe.speed()
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if result["digest"] is not None:
        result["setup_s"] = (result["imported_at"] - spawned_at
                             + result["setup_phase_s"])
        if trace:
            result["layers"] = layer_metrics(spans.merge(tmp),
                                             result["manifest"])
    result.pop("manifest", None)
    shutil.rmtree(tmp)
    return result


def run_workload(workload, seed, seconds, repeat, trace, planned,
                 scratch):
    """The untraced and traced repetitions of one workload's run."""
    deadline = time.monotonic() + seconds
    untraced, traced = [], []
    while True:
        short = len(untraced) < repeat or (trace and len(traced) < repeat)
        longest = max((rep["wall_s"] for rep in untraced + traced),
                      default=0.0)
        if not short and time.monotonic() + longest > deadline:
            break
        use_trace = trace and len(traced) < len(untraced)
        rep = spawn_runner(
            workload, seed, scratch / f"rep-{len(untraced) + len(traced)}",
            planned, trace=use_trace,
        )
        (traced if use_trace else untraced).append(rep)
    return untraced, traced


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def print_metric(name, values, unit):
    median, q1, q3, n = summarize(values)
    print(f"  {name:32s} {median:14.6g} {unit:6s} "
          f"q1 {q1:.6g}  q3 {q3:.6g}  n={n}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark "
                    "(see benchmarks/e2e/README.md)"
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget per workload (default 0: "
                             "exactly --repeat repetitions)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions at least (default 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="also run traced repetitions and report "
                             "the per-layer metrics")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "pins.json")
    units = {metric["name"]: metric["unit"]
             for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    wanted = [metric["name"] for metric in benchmark[
        "per_layer" if args.trace else "end_to_end"]]
    workloads = args.workload or list(WORKLOADS)
    # Byte-compile the sources up front so the first repetition's
    # set-up time does not include writing __pycache__.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    print(f"host: {json.dumps(host_block())}")
    scratch_root = ROOT / ".bench_e2e"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            untraced, traced = run_workload(
                workload, args.seed, args.seconds, args.repeat,
                bool(args.trace), pins[workload]["operations"],
                scratch / workload,
            )
            reps = untraced + traced
            check_digests(reps, pin_for(pins, workload, args.seed))
            attempted += sum(rep["attempted"] for rep in reps)
            failed += sum(failed_operations(rep) for rep in reps)
            verdict = ("ok" if all(rep["digest_ok"] for rep in reps)
                       else "WRONG")
            print(f"workload {workload} (seed {args.seed}): "
                  f"{len(untraced)} untraced + {len(traced)} traced "
                  f"repetition(s), digest {reps[0]['digest']} {verdict}")
            print_metric("host speed", [rep["speed"] for rep in reps], "x")
            series = metric_series(untraced, traced)
            for name, values in series.items():
                print_metric(name, values, units[name])
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            for name in wanted:
                if name in series:
                    metrics[prefix + name] = {
                        "value": statistics.median(series[name]),
                        "unit": units[name],
                    }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
