"""Bench (extension): software vs hardware vs operator faults.

The paper's conclusion sketches the full dependability benchmark as the
software faultload *plus* hardware and operator fault models.  This bench
runs all three classes against the same Apache/NT5.0 target, each as a
campaign of its own on the one slot walk (its own machines, slot-gap
audits and metrics digest), and prints the familiar measures per class —
the comparison the sketched benchmark would report.
"""

from dataclasses import replace

from _bench_common import bench_config

from repro.extensions.statefaults import class_faultload
from repro.harness.campaign import ParallelCampaign
from repro.reporting.tables import TableBuilder

CLASSES = ("software", "hardware", "operator")


def _run_all_classes():
    config = bench_config()
    config.fault_sample = 36
    # One pass per class, as the single-iteration comparison reads.
    config.rules = replace(config.rules, iterations=1)
    results = {}
    for fault_class in CLASSES:
        # Software: the sampled G-SWFIT scan; the state-fault classes:
        # each standard fault six times.
        faultload = None
        if fault_class != "software":
            faultload = class_faultload(
                config.os_codename, fault_class, repetitions=6
            )
        campaign = ParallelCampaign(config)
        result = campaign.run(
            faultload=faultload,
            include_baseline=False, include_profile_mode=False,
        )
        results[fault_class] = (result.iterations[0],
                                campaign.manifest.metrics_digest)
    return results


def test_extension_fault_models(benchmark):
    results = benchmark.pedantic(
        _run_all_classes, rounds=1, iterations=1
    )
    table = TableBuilder(
        ["Fault class", "faults", "SPC", "THR", "ER%",
         "MIS", "KNS", "KCP", "RES"],
        title="Extension - fault classes compared (apache on NT 5.0)",
    )
    for fault_class, (row, _digest) in results.items():
        table.add_row(
            "software (G-SWFIT)" if fault_class == "software"
            else fault_class,
            row.faults_injected,
            f"{row.metrics.spc:.1f}", f"{row.metrics.thr:.1f}",
            f"{row.metrics.er_percent:.1f}",
            row.mis, row.kns, row.kcp, row.residual_errors,
        )
    print()
    print(table.render())
    print("metrics digests:")
    for fault_class, (_row, digest) in results.items():
        print(f"  {fault_class}: {digest}")

    software = results["software"][0]
    hardware = results["hardware"][0]
    operator = results["operator"][0]
    # Every mistaken kill needs an administrator: operator faults are
    # intervention-heavy relative to their error footprint.
    assert operator.mis >= 6  # one per MistakenProcessKill repetition
    # Hardware faults corrupt service (errors) more than they kill it.
    assert hardware.metrics.er_percent > 0
    assert hardware.mis <= operator.mis
    # The software faultload degrades service too (sanity anchor).
    assert software.metrics.er_percent > 0
