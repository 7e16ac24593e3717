"""Bench: regenerate Table 2 (relevant API calls).

The profiling phase of the methodology: run all four web servers under
the SPECWeb-like workload with the API tracer attached, keep the functions
every server uses with non-negligible frequency, and report per-server
usage percentages plus the total call coverage of the selected set.

Shape targets: the selected set is small but covers most OS traffic
(paper: 68.3%; our servers are leaner than the real binaries, so coverage
lands higher), the usage pattern is stable across servers, and the
selected set overlaps strongly with the paper's 21 functions.
"""

from _bench_common import bench_config

from repro.harness.experiment import profile_servers
from repro.profiling.usage import UsageTable
from repro.reporting.paper import PAPER
from repro.reporting.report import table2_api_usage
from repro.webservers.registry import PROFILING_SERVERS


def _regenerate():
    config = bench_config()
    tracers = profile_servers(config, PROFILING_SERVERS, seconds=30.0)
    return UsageTable.from_tracers(tracers)


def test_table2_api_profile(benchmark):
    usage = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    print()
    print(table2_api_usage(usage).render())

    selected = usage.select_relevant()
    coverage = usage.total_call_coverage()
    paper_functions = {
        name for _module, name in PAPER["table2"]["functions"]
    }
    our_functions = {row.function for row in selected}

    # The selection rules held: everything selected is used by all four
    # servers and carries non-negligible traffic.
    for row in selected:
        assert row.used_by_all(usage.target_names)
        assert row.average() > 0.1

    # Strong overlap with the paper's function set.
    overlap = paper_functions & our_functions
    assert len(overlap) >= 15, (
        f"only {sorted(overlap)} of the paper's set selected"
    )

    # A small set of functions still dominates the call volume.
    assert len(selected) < 40
    assert coverage > 60.0
    print(f"\nselected {len(selected)} functions, "
          f"total call coverage {coverage:.2f}% (paper: 68.34%)")
