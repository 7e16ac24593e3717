"""Bench: regenerate Figure 5 (Apache vs Abyss under software faults).

Figure 5 shows, side by side for both OSes, the baseline and
under-faultload values of SPC/THR/RTM plus ER%f and the administration
counters.  This bench prints the same series and asserts the figure's
visual claims: the SPC collapse under faults, the mild THR dip, Abyss's
higher error rate and heavier administration needs, and the stability of
the relative ordering across OS builds.
"""

from _bench_common import os_display

from repro.harness.metrics import DependabilityMetrics
from repro.reporting.report import figure5_series
from repro.reporting.tables import TableBuilder


def test_figure5_comparison(benchmark, campaign_results):
    metrics = benchmark.pedantic(
        lambda: {
            combo: DependabilityMetrics.from_results(result)
            for combo, result in campaign_results.items()
        },
        rounds=1, iterations=1,
    )
    display = {
        (os_display(os_codename), server): metric
        for (os_codename, server), metric in metrics.items()
    }
    series = figure5_series(display)

    table = TableBuilder(
        ["Series"] + [f"{os_name}/{server}"
                      for os_name, server in display],
        title="Figure 5 - Apache vs Abyss in the presence of faults",
    )
    for name, values in series.items():
        table.add_row(name, *[f"{values[combo]:.1f}"
                              for combo in display])
    print()
    print(table.render())
    from repro.reporting.figures import figure5_panels

    print()
    print(figure5_panels(series))

    for os_codename in ("nt50", "nt51"):
        apache = metrics[(os_codename, "apache")]
        abyss = metrics[(os_codename, "abyss")]
        # SPC collapses under faults for both servers...
        assert apache.spc_relative < 0.95
        assert abyss.spc_relative < 0.8
        # ...but throughput only dips.
        assert apache.thr_relative > 0.75
        assert abyss.thr_relative > 0.75
        # Panel ordering: Apache above Abyss everywhere.
        assert apache.spc_relative > abyss.spc_relative
        assert apache.erf_percent < abyss.erf_percent
        assert apache.admf <= abyss.admf
        assert abyss.mis > apache.mis

    # The relative difference is a property of the servers, not the OS:
    # same winner, same direction, on both builds.
    gap_nt50 = (metrics[("nt50", "abyss")].erf_percent
                - metrics[("nt50", "apache")].erf_percent)
    gap_nt51 = (metrics[("nt51", "abyss")].erf_percent
                - metrics[("nt51", "apache")].erf_percent)
    assert gap_nt50 > 0 and gap_nt51 > 0
