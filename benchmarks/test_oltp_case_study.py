"""Bench (extension): the methodology generalized to OLTP.

The paper's abstract claims the methodology "can be used to generate
faultloads for the evaluation of any software product such as OLTP
systems".  This bench runs the full loop on the database domain: profile
the two engines, fine-tune the faultload to their common API footprint,
inject, and compare — with the client auditing durability (acknowledged
transactions surviving crashes) on top of the usual measures.

Shape targets: clean baselines for both engines; under the same
faultload the WAL engine (walnut) keeps integrity violations at zero
while the write-back engine (breezy) loses acknowledged transactions;
breezy is faster at baseline (the classic safety/performance trade).
"""

from _bench_common import bench_config

from repro.harness.experiment import WebServerExperiment
from repro.harness.results import BenchmarkResult
from repro.harness.telemetry import metrics_digest
from repro.oltp import ENGINES
from repro.pipeline import build_tuned_faultload
from repro.reporting.tables import TableBuilder


def _run_case_study():
    config = bench_config(server_name="walnut")
    config.fault_sample = 48
    tuned = build_tuned_faultload(
        config, servers=ENGINES, profile_seconds=15.0
    )
    results = {}
    for engine in ENGINES:
        engine_config = config.with_target(server_name=engine)
        experiment = WebServerExperiment(engine_config)
        results[engine] = BenchmarkResult(
            server_name=engine,
            os_codename=engine_config.os_codename,
            os_display=experiment.build.display_name,
            baseline=experiment.run_baseline(),
            iterations=[
                experiment.run_injection(faultload=tuned, iteration=1)
            ],
        )
    return tuned, results


def test_oltp_case_study(benchmark):
    tuned, results = benchmark.pedantic(
        _run_case_study, rounds=1, iterations=1
    )
    table = TableBuilder(
        ["Engine", "Row", "TPS", "RTM(ms)", "ER%", "violations",
         "MIS", "KNS", "KCP"],
        title="OLTP case study - same faultload, different domain",
    )
    for engine, result in results.items():
        baseline = result.baseline
        injection = result.iterations[0]
        table.add_row(engine, "baseline", f"{baseline.tps:.1f}",
                      f"{baseline.rtm_ms:.1f}",
                      f"{baseline.er_percent:.2f}",
                      baseline.integrity_violations, 0, 0, 0)
        metrics = injection.metrics
        table.add_row(engine, "faultload", f"{metrics.tps:.1f}",
                      f"{metrics.rtm_ms:.1f}",
                      f"{metrics.er_percent:.2f}",
                      metrics.integrity_violations,
                      injection.mis, injection.kns, injection.kcp)
    print()
    print(table.render())
    print(f"({len(tuned)} OLTP-domain fault locations)")
    print("metrics digests:")
    for engine, result in results.items():
        injection = result.iterations[0]
        print(f"  {engine}: {metrics_digest(result)} "
              f"({injection.faults_activated} of "
              f"{injection.faults_injected} faults activated)")

    walnut_base = results["walnut"].baseline
    walnut_fault = results["walnut"].iterations[0]
    breezy_base = results["breezy"].baseline
    breezy_fault = results["breezy"].iterations[0]

    # Clean baselines: no errors, no violations, real throughput.
    for baseline in (walnut_base, breezy_base):
        assert baseline.er_percent == 0.0
        assert baseline.integrity_violations == 0
        assert baseline.tps > 50
    # The safety/performance trade at baseline.
    assert breezy_base.tps > walnut_base.tps
    # The headline: same faultload, WAL preserves acknowledged
    # transactions, write-back loses them.
    assert walnut_fault.metrics.integrity_violations == 0
    assert breezy_fault.metrics.integrity_violations > 0
    # Both engines visibly degrade under faults.
    assert walnut_fault.metrics.tps < walnut_base.tps
    assert walnut_fault.admf + breezy_fault.admf > 0
