"""Self-tests of the end-to-end benchmark's arithmetic and schema.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import re

import pytest

import run
import runner
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Median and quartiles
# ----------------------------------------------------------------------
def test_summarize_median_and_quartiles():
    assert run.summarize([5, 1, 4, 2, 3]) == (3, 1.5, 4.5, 5)
    assert run.summarize([1, 2, 3, 4]) == (2.5, 1.25, 3.75, 4)


def test_summarize_single_value_is_its_own_quartiles():
    assert run.summarize([7.5]) == (7.5, 7.5, 7.5, 1)


def test_summarize_rejects_no_values():
    with pytest.raises(ValueError):
        run.summarize([])


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    table = spans.SpanTable(clock=clock)
    leaf = table.wrap("leaf", lambda: clock.advance(2))

    def middle():
        clock.advance(1)
        leaf()
        clock.advance(1)
        leaf()

    def top():
        clock.advance(3)
        traced_middle()
        clock.advance(4)

    traced_middle = table.wrap("middle", middle)
    table.wrap("top", top)()
    spans_out = table.to_dict()["spans"]
    assert spans_out["top"] == {"calls": 1, "total": 13.0, "self": 7.0}
    assert spans_out["middle"] == {"calls": 1, "total": 6.0, "self": 2.0}
    assert spans_out["leaf"] == {"calls": 2, "total": 4.0, "self": 4.0}


def test_nested_span_of_same_name_counts_once():
    clock = FakeClock()
    table = spans.SpanTable(clock=clock)

    def recurse(depth):
        clock.advance(1)
        if depth:
            traced(depth - 1)

    traced = table.wrap("layer", recurse)
    traced(2)
    assert table.to_dict()["spans"]["layer"] == {
        "calls": 1, "total": 3.0, "self": 3.0,
    }


def test_on_result_sees_outermost_result_and_errors_are_counted():
    table = spans.SpanTable(clock=FakeClock())
    seen = []
    table.wrap("scan", lambda n: list(range(n)),
               on_result=lambda result, n: seen.append((len(result), n)))(4)
    assert seen == [(4, 4)]

    def broken():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        table.wrap("inject", broken)()
    assert table.counters["inject.errors"] == 1
    assert table.to_dict()["spans"]["inject"]["calls"] == 1


def test_merge_sums_per_process_tables(tmp_path):
    for pid, (calls, total) in {"11": (2, 1.5), "12": (3, 0.5)}.items():
        (tmp_path / f"spans-{pid}.json").write_text(json.dumps({
            "spans": {"sim": {"calls": calls, "total": total,
                              "self": total}},
            "counters": {"sim.events": calls * 10},
        }))
    merged = spans.merge(tmp_path)
    assert merged["spans"]["sim"] == {"calls": 5, "total": 2.0, "self": 2.0}
    assert merged["counters"] == {"sim.events": 50}


# ----------------------------------------------------------------------
# Failed-operation accounting
# ----------------------------------------------------------------------
def _manifest(injected):
    return {"slots": 48, "iterations": 3,
            "activation": {"faults_injected": injected}}


def test_slot_accounting_counts_never_injected_slots():
    assert runner.slot_accounting(_manifest(144)) == (144, 0)
    # One 6-slot shard quarantined and one slot skipped by MutantError.
    assert runner.slot_accounting(_manifest(137)) == (144, 7)


def test_digest_mismatch_fails_every_operation():
    reps = [{"digest": "a", "attempted": 144, "failed": 0, "rc": 0},
            {"digest": "b", "attempted": 144, "failed": 2, "rc": 0}]
    run.check_digests(reps, pin="a")
    assert [run.failed_operations(rep) for rep in reps] == [0, 144]


def test_without_pin_repetitions_must_agree():
    reps = [{"digest": "x", "attempted": 10, "failed": 1, "rc": 0},
            {"digest": "x", "attempted": 10, "failed": 1, "rc": 0},
            {"digest": "y", "attempted": 10, "failed": 0, "rc": 0}]
    assert run.check_digests(reps, pin=None) == "x"
    assert sum(run.failed_operations(rep) for rep in reps) == 12


def test_nonzero_exit_fails_every_operation():
    rep = {"digest": "a", "attempted": 5, "failed": 0, "rc": 1}
    run.check_digests([rep], pin="a")
    assert run.failed_operations(rep) == 5


def test_failed_runner_fails_its_planned_operations(tmp_path):
    out = tmp_path / "result.json"
    crashed = run.runner_result(out, -9, planned=144)
    assert crashed == {"rc": -9, "digest": None,
                       "attempted": 144, "failed": 144}
    # Exit code 0 but no result written still counts as a failure.
    assert run.runner_result(out, 0, planned=144)["rc"] == 1
    ok = {"digest": "a", "attempted": 144, "failed": 0, "rc": 0,
          "ops": 144, "measured_s": 12.0, "wall_s": 14.0,
          "setup_s": 0.4, "speed": 1.0, "peak_rss_mb": 40.0}
    crashed.update(wall_s=150.0, peak_rss_mb=30.0)
    reps = [crashed, ok]
    run.check_digests(reps, pin=None)
    assert [rep["digest_ok"] for rep in reps] == [False, True]
    assert sum(run.failed_operations(rep) for rep in reps) == 144
    # The failed repetition measured nothing, so it adds no sample.
    assert run.metric_series(reps, [])["wall_s"] == [14.0]
    assert run.metric_series([crashed], []) == {}


def test_crashing_runner_ends_the_run_with_its_json_line(
        tmp_path, monkeypatch, capsys):
    # A runner script that dies at once stands in for one that crashes.
    (tmp_path / "runner.py").write_text("raise SystemExit(3)\n")
    (tmp_path / "pins.json").write_text(
        (run.HERE / "pins.json").read_text("utf-8"))
    monkeypatch.setattr(run, "HERE", tmp_path)
    assert run.main(["--workload", "ref", "--repeat", "2"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 288, "failed": 288,
                    "metrics": {}}


def test_pins_apply_at_their_seed_or_at_every_seed():
    pins = {"ref": {"seed": 2004, "digest": "r"},
            "faultload": {"seed": None, "digest": "f"}}
    assert run.pin_for(pins, "ref", 2004) == "r"
    assert run.pin_for(pins, "ref", 7) is None
    assert run.pin_for(pins, "faultload", 7) == "f"
    assert run.pin_for(pins, "pool", 2004) is None


def test_pinned_file_covers_every_workload():
    pins = run.load_json(run.HERE / "pins.json")
    assert set(pins) == set(runner.WORKLOADS)
    for entry in pins.values():
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"])
        assert isinstance(entry["operations"], int)
        assert entry["operations"] >= 1


# ----------------------------------------------------------------------
# Canonical mutant bytecode
# ----------------------------------------------------------------------
def _code(source):
    return compile(source, "<test>", "exec")


def test_canonical_code_ignores_frozenset_order_and_names_nested_code():
    first = _code("def f(x):\n    return x in {'a', 'b', 'c'}\n")
    again = _code("def f(x):\n    return x in {'a', 'b', 'c'}\n")
    other = _code("def f(x):\n    return x in {'a', 'b', 'd'}\n")
    assert runner.canonical_code(first) == runner.canonical_code(again)
    assert runner.canonical_code(first) != runner.canonical_code(other)


# ----------------------------------------------------------------------
# BENCHMARK.json schema
# ----------------------------------------------------------------------
def test_benchmark_json_has_the_contract_keys():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert isinstance(BENCHMARK["run_seconds"], int)
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_workloads_are_named_and_explained():
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert names == list(runner.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert workload["why"] and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200


def test_metrics_are_named_bounded_and_within_caps():
    end_to_end = BENCHMARK["end_to_end"]
    per_layer = BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [metric["name"] for metric in end_to_end + per_layer]
    assert len(names) == len(set(names))
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"])
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def _rep(wall_s=3.0, speed=1.0):
    return {"digest": "a", "ops": 10, "measured_s": 2.0, "wall_s": wall_s,
            "setup_s": 0.5, "speed": speed, "peak_rss_mb": 40.0}


def test_times_are_scaled_to_the_reference_host_speed():
    # At half the reference speed everything took twice as long.
    series = run.metric_series([_rep(wall_s=6.0, speed=0.5)], [])
    assert series["wall_s"] == [3.0]
    assert series["setup_s"] == [0.25]
    assert series["ops_per_s"] == [10.0]
    assert series["peak_rss_mb"] == [40.0]


def test_speed_is_reference_over_median_probe_time():
    probe = run.SpeedProbe()
    probe.samples = [run.PROBE_REFERENCE_S * factor for factor in (2, 3, 9)]
    assert probe.speed() == pytest.approx(1 / 3)
    with run.SpeedProbe() as quick:
        pass
    assert len(quick.samples) == 1 and quick.speed() > 0


def test_busy_processes_follow_the_worker_count():
    assert {workload: runner.busy_processes(workload)
            for workload in runner.WORKLOADS} == {
        "ref": 1, "pristine": 1, "pool": 2, "faultload": 1}


def test_every_listed_metric_is_computed():
    untraced_only = run.metric_series([_rep()], [])
    assert set(untraced_only) == {m["name"] for m in BENCHMARK["end_to_end"]}
    traced = {**_rep(), "layers": run.layer_metrics(
        {"spans": {}, "counters": {}}, None)}
    both = run.metric_series([_rep()], [traced])
    assert set(both) - set(untraced_only) == {
        m["name"] for m in BENCHMARK["per_layer"]
    }


def test_trace_overhead_compares_median_walls():
    layers = run.layer_metrics({"spans": {}, "counters": {}}, None)
    untraced = [_rep(wall) for wall in (9.0, 10.0, 30.0)]
    traced = [{**_rep(11.0), "layers": layers}]
    series = run.metric_series(untraced, traced)
    assert series["trace.overhead_pct"] == [pytest.approx(10.0)]
    assert series["ops_per_s"] == [5.0, 5.0, 5.0]
    assert series["setup_s"] == [0.5, 0.5, 0.5]


def test_later_set_worsening_follows_each_metrics_direction():
    import spread

    def one_set(ops, wall):
        return {"workloads": {"ref": {"ops_per_s": {"median": ops},
                                      "wall_s": {"median": wall}}}}

    changes = spread.worse_by(BENCHMARK, one_set(10.0, 10.0),
                              one_set(8.0, 12.0))
    assert changes["ref"] == {"ops_per_s": pytest.approx(0.2),
                              "wall_s": pytest.approx(0.2)}


def test_over_bound_lists_setup_spread_and_worsening():
    import spread

    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {
        "sets": [{"workloads": {"faultload": {
            "setup_s": {"spread": bound["setup_s"] + 0.01},
            "wall_s": {"spread": bound["wall_s"] / 2},
        }}}],
        "later_median_worse_by": [{"pool": {
            "ops_per_s": bound["ops_per_s"] + 0.01,
            "wall_s": -0.5,
        }}],
    }
    lines = spread.over_bound(BENCHMARK, record)
    assert len(lines) == 2
    assert lines[0].startswith("set 1 faultload setup_s: spread")
    assert lines[1].startswith("set 2 pool ops_per_s: median worse by")
