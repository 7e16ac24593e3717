"""Bench: regenerate Table 4 (injector intrusiveness).

For every server/OS combination: a max-performance run (no injector) and
a profile-mode run (injector attached, doing everything but the final
code swap).  The paper's claim: the injector's perturbation is small —
worst-case degradation under 2% and no errors introduced.
"""

from _bench_common import OS_CODENAMES, bench_config, os_display

from repro.harness.experiment import WebServerExperiment
from repro.reporting.compare import compare_shape, table4_shape_checks
from repro.reporting.paper import PAPER
from repro.reporting.report import table4_intrusiveness
from repro.webservers.registry import BENCHMARKED_SERVERS


def _regenerate():
    results = {}
    for os_codename in OS_CODENAMES:
        for server_name in BENCHMARKED_SERVERS:
            config = bench_config(server_name, os_codename)
            experiment = WebServerExperiment(config)
            max_perf = experiment.run_baseline()
            profile = experiment.run_profile_mode()
            results[(os_display(os_codename), server_name)] = (
                max_perf, profile
            )
    return results


def test_table4_intrusiveness(benchmark):
    results = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    print()
    print(table4_intrusiveness(results).render())
    print(f"(paper worst-case degradation: "
          f"{PAPER['table4']['worst_degradation_percent']}%)")

    degradations = {}
    for combo, (max_perf, profile) in results.items():
        assert profile.er_percent == 0.0, (
            f"profile mode introduced errors for {combo}"
        )
        thr_degradation = (
            100.0 * (max_perf.thr - profile.thr) / max_perf.thr
        )
        degradations[combo] = thr_degradation

    passed, report = compare_shape(table4_shape_checks(degradations))
    print(report)
    assert passed
