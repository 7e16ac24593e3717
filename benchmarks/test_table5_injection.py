"""Bench: regenerate Table 5 (the dependability benchmark results).

The headline experiment: for each server/OS combination, three iterations
over the (sampled) faultload with 10-second injection slots, the watchdog
producing MIS/KNS/KCP, and the SPECWeb-like client producing SPC, THR,
RTM and ER%.

Shape targets (the paper's comparison claims, checked per OS and across
OSes): Apache degrades less than Abyss on ER% and relative SPC, Abyss
dies unrecovered far more often (MIS), Apache needs no more administrator
interventions overall, throughput stays close to baseline for both, KCP
is rare, and the winner is the same on both OS builds (portability).
"""

from _bench_common import os_display

from repro.harness.metrics import DependabilityMetrics
from repro.harness.telemetry import metrics_digest
from repro.reporting.compare import compare_shape, table5_shape_checks
from repro.reporting.paper import PAPER
from repro.reporting.report import table5_results


def test_table5_injection(benchmark, campaign_results):
    results = benchmark.pedantic(
        lambda: campaign_results, rounds=1, iterations=1
    )
    display = {
        (os_display(os_codename), server_name): result
        for (os_codename, server_name), result in results.items()
    }
    print()
    print(table5_results(display).render())
    for (os_codename, server_name), result in results.items():
        print(f"metrics digest {os_codename}/{server_name}: "
              f"{metrics_digest(result)}")

    paper = PAPER["table5"][("win2000", "apache")]
    print(f"(paper, W2k/Apache average: SPC {paper['SPC']}, "
          f"THR {paper['THR']}, ER% {paper['ER%']}, MIS {paper['MIS']}, "
          f"KNS {paper['KNS']})")

    metrics = {
        combo: DependabilityMetrics.from_results(result)
        for combo, result in results.items()
    }

    # Per-iteration repeatability: iterations resemble each other.
    for combo, result in results.items():
        ers = [it.metrics.er_percent for it in result.iterations]
        assert max(ers) - min(ers) < max(6.0, 0.9 * max(ers)), (
            f"iterations diverge wildly for {combo}: {ers}"
        )

    # KCP is rare (paper: 0-2 per campaign).
    for combo, metric in metrics.items():
        assert metric.kcp <= 3, f"KCP unexpectedly common for {combo}"

    passed, report = compare_shape(table5_shape_checks(metrics))
    print(report)
    assert passed
