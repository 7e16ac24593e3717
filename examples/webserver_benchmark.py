"""The paper's case study, end to end: Apache vs Abyss on two OS builds.

Runs the complete dependability benchmark at laptop scale — baseline,
profile-mode intrusiveness check, and three fault-injection iterations
per server/OS combination, each one campaign of the engine behind
``repro-bench campaign`` — printing each campaign's metrics digest, then
the Table 5 analogue, the derived dependability metrics, and the Figure 5
comparison series.

Run with:  python examples/webserver_benchmark.py          (scaled, ~2 min)
           python examples/webserver_benchmark.py --quick  (tiny, ~30 s)
"""

import argparse

from repro import ExperimentConfig
from repro.harness.campaign import ParallelCampaign
from repro.harness.metrics import DependabilityMetrics
from repro.ossim.builds import get_build
from repro.reporting.report import figure5_series, table5_results
from repro.reporting.compare import compare_shape, table5_shape_checks


def run(faults, connections):
    results = {}
    for os_codename in ("nt50", "nt51"):
        for server_name in ("apache", "abyss"):
            config = ExperimentConfig.scaled(
                fault_sample=faults, connections=connections
            )
            config.os_codename = os_codename
            config.server_name = server_name
            build = get_build(os_codename)
            print(f"... benchmarking {server_name} on "
                  f"{build.display_name}")
            campaign = ParallelCampaign(config)
            results[(os_codename, server_name)] = campaign.run()
            print(f"    metrics digest {campaign.manifest.metrics_digest}")
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="tiny configuration (~30 s)")
    parser.add_argument("--faults", type=int, default=None)
    parser.add_argument("--connections", type=int, default=None)
    args = parser.parse_args()
    faults = args.faults or (24 if args.quick else 72)
    connections = args.connections or (8 if args.quick else 12)

    results = run(faults, connections)

    display = {
        (get_build(os_codename).display_name, server): result
        for (os_codename, server), result in results.items()
    }
    print()
    print(table5_results(display).render())

    metrics = {
        combo: DependabilityMetrics.from_results(result)
        for combo, result in results.items()
    }
    print("\nDerived dependability metrics:")
    for (os_codename, server), metric in metrics.items():
        print(f"  {server:7s} on {os_codename}: "
              f"SPCf/SPC={metric.spc_relative:.2f} "
              f"THRf/THR={metric.thr_relative:.2f} "
              f"ER%f={metric.erf_percent:.1f} "
              f"ADMf={metric.admf:.1f} "
              f"(MIS={metric.mis:.0f} KNS={metric.kns:.0f} "
              f"KCP={metric.kcp:.0f})")

    print("\nFigure 5 series (per combo):")
    series = figure5_series({
        (get_build(os_codename).display_name, server): metric
        for (os_codename, server), metric in metrics.items()
    })
    for name in ("SPCf", "ER%f", "ADMf"):
        print(f"  {name}: " + ", ".join(
            f"{os_name.split()[1]}/{server}={value:.1f}"
            for (os_name, server), value in series[name].items()
        ))

    print("\nPaper shape claims:")
    _passed, report = compare_shape(table5_shape_checks(metrics))
    print(report)


if __name__ == "__main__":
    main()
