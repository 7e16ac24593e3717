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

Each engine is one :class:`ParallelCampaign` at the default worker
count (a baseline and one injection iteration), so its digest is the
same for any worker count.
"""

from dataclasses import replace

from _bench_common import bench_config

from repro.harness.campaign import ParallelCampaign
from repro.harness.telemetry import metrics_digest
from repro.oltp import ENGINES
from repro.pipeline import build_tuned_faultload
from repro.reporting.report import oltp_results


def _run_case_study():
    config = bench_config(server_name="walnut")
    config.fault_sample = 48
    config.rules = replace(config.rules, iterations=1)
    tuned = build_tuned_faultload(
        config, servers=ENGINES, profile_seconds=15.0
    )
    results = {
        engine: ParallelCampaign(
            config.with_target(server_name=engine)
        ).run(faultload=tuned, include_profile_mode=False)
        for engine in ENGINES
    }
    return tuned, results


def test_oltp_case_study(benchmark):
    tuned, results = benchmark.pedantic(
        _run_case_study, rounds=1, iterations=1
    )
    print()
    print(oltp_results(results).render())
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
