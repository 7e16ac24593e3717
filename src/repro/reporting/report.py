"""Builders that turn measured data into the paper's tables and figure.

Each function mirrors one exhibit of the paper; the benches print these
next to the published values recorded in :mod:`repro.reporting.paper`.
"""

from repro.faults.fielddata import total_field_coverage
from repro.faults.types import fault_type_info, iter_fault_types
from repro.reporting.tables import TableBuilder

__all__ = [
    "figure5_series",
    "oltp_results",
    "table1_fault_types",
    "table2_api_usage",
    "table3_faultload_details",
    "table4_intrusiveness",
    "table5_results",
]


def table1_fault_types():
    """Table 1: fault types, descriptions, field coverage, ODC types.

    A Provenance column records whether each type's operator is a
    built-in Table 1 class or a DSL spec (a re-expression or a new
    dynamic fault type) — dynamic types appear after the twelve.
    """
    from repro.gswfit.operators import operator_provenance

    table = TableBuilder(
        ["Fault type", "Description", "Fault coverage", "ODC type",
         "Provenance"],
        title="Table 1 - Representativity of the fault types",
    )
    for fault_type in iter_fault_types():
        info = fault_type_info(fault_type)
        table.add_row(
            fault_type.value,
            info.description,
            f"{info.field_coverage_percent:.2f} %",
            info.odc_type.value,
            operator_provenance(fault_type),
        )
    table.add_row("", "Total faults coverage",
                  f"{total_field_coverage():.2f} %", "", "")
    return table


def table2_api_usage(usage_table):
    """Table 2: relevant API calls with per-server usage percentages."""
    targets = usage_table.target_names
    headers = ["Function name", "Module"] + list(targets) + ["Average"]
    table = TableBuilder(headers, title="Table 2 - Relevant API calls")
    for row in usage_table.select_relevant():
        cells = [row.function, row.module]
        cells.extend(
            f"{row.per_target.get(target, 0.0):.2f}" for target in targets
        )
        cells.append(f"{row.average():.2f}")
        table.add_row(*cells)
    coverage = usage_table.total_call_coverage()
    table.add_row("Total call coverage", "", *([""] * len(targets)),
                  f"{coverage:.2f}")
    return table


def table3_faultload_details(faultloads_by_os):
    """Table 3: number of faults per fault type per OS build.

    ``faultloads_by_os`` maps an OS display name to its (fine-tuned)
    faultload.
    """
    headers = ["OS"] + [ft.value for ft in iter_fault_types()] + ["Total"]
    table = TableBuilder(headers, title="Table 3 - Faultload details")
    for os_name, faultload in faultloads_by_os.items():
        counts = faultload.counts_by_type()
        cells = [os_name]
        cells.extend(counts[ft] for ft in iter_fault_types())
        cells.append(len(faultload))
        table.add_row(*cells)
    return table


def _degradation_percent(reference, value, inverted=False):
    if reference == 0:
        return 0.0
    change = 100.0 * (reference - value) / reference
    return -change if inverted else change


def table4_intrusiveness(results_by_combo):
    """Table 4: max performance vs profile mode, with degradation.

    ``results_by_combo`` maps (os_display, server_name) to a pair of
    :class:`~repro.specweb.metrics.SpecWebMetrics` — (max_perf, profile).
    """
    table = TableBuilder(
        ["OS", "Server", "Row", "SPC", "CC%", "THR", "RTM"],
        title="Table 4 - Performance degradation and intrusion evaluation",
    )
    for (os_name, server), (max_perf, profile) in results_by_combo.items():
        table.add_row(os_name, server, "Max. Perf.",
                      f"{max_perf.spc:.1f}", f"{max_perf.cc_percent:.1f}",
                      f"{max_perf.thr:.1f}", f"{max_perf.rtm_ms:.1f}")
        table.add_row(os_name, server, "Profile mode",
                      f"{profile.spc:.1f}", f"{profile.cc_percent:.1f}",
                      f"{profile.thr:.1f}", f"{profile.rtm_ms:.1f}")
        table.add_row(
            os_name, server, "Degradation (%)",
            f"{_degradation_percent(max_perf.spc, profile.spc):.2f}",
            f"{_degradation_percent(max_perf.cc_percent, profile.cc_percent):.2f}",
            f"{_degradation_percent(max_perf.thr, profile.thr):.2f}",
            f"{_degradation_percent(max_perf.rtm_ms, profile.rtm_ms, inverted=True):.2f}",
        )
    return table


def table5_results(results_by_combo):
    """Table 5: per-iteration and averaged injection results.

    ``results_by_combo`` maps (os_display, server_name) to a
    :class:`~repro.harness.results.BenchmarkResult`.
    """
    table = TableBuilder(
        ["OS", "Server", "Row", "SPC", "THR", "RTM", "ER%",
         "MIS", "KCP", "KNS", "RES", "ACT%"],
        title="Table 5 - Experimental results",
    )

    def _percent(value):
        return None if value is None else f"{value:.1f}"

    for (os_name, server), result in results_by_combo.items():
        reference = result.profile_mode or result.baseline
        if reference is not None:
            # RES and ACT% are "-" for the baseline row: no faults, so
            # neither audits nor activations exist.
            table.add_row(os_name, server, "Baseline Perf.",
                          f"{reference.spc:.1f}", f"{reference.thr:.1f}",
                          f"{reference.rtm_ms:.1f}", "0", "0", "0", "0",
                          None, None)
        for iteration in result.iterations:
            row = iteration.as_row()
            table.add_row(
                os_name, server, f"Iteration {iteration.iteration}",
                f"{row['SPC']:.1f}", f"{row['THR']:.1f}",
                f"{row['RTM']:.1f}", f"{row['ER%']:.1f}",
                str(row["MIS"]), str(row["KCP"]), str(row["KNS"]),
                row["RES"], _percent(row.get("ACT%")),
            )
        average = result.average_row()
        if average:
            table.add_row(
                os_name, server, "Average (all iter)",
                f"{average['SPC']:.1f}", f"{average['THR']:.1f}",
                f"{average['RTM']:.1f}", f"{average['ER%']:.1f}",
                f"{average['MIS']:.1f}", f"{average['KCP']:.1f}",
                f"{average['KNS']:.1f}", average.get("RES"),
                _percent(average.get("ACT%")),
            )
    return table


def oltp_results(results_by_engine):
    """The OLTP case study's table: each engine's baseline and injection
    iterations, with the client's integrity violations.
    ``results_by_engine`` maps an engine name to its
    :class:`~repro.harness.results.BenchmarkResult`."""
    table = TableBuilder(
        ["Engine", "Row", "TPS", "RTM(ms)", "ER%", "violations",
         "MIS", "KNS", "KCP"],
        title="OLTP dependability benchmark",
    )
    for engine, result in results_by_engine.items():
        rows = [("baseline", result.baseline, (0, 0, 0))] + [
            (f"iteration {iteration.iteration}", iteration.metrics,
             (iteration.mis, iteration.kns, iteration.kcp))
            for iteration in result.iterations
        ]
        for row, metrics, interventions in rows:
            table.add_row(engine, row, f"{metrics.tps:.1f}",
                          f"{metrics.rtm_ms:.1f}",
                          f"{metrics.er_percent:.2f}",
                          metrics.integrity_violations, *interventions)
    return table


def figure5_series(dependability_by_combo):
    """Figure 5: the comparison series, as plottable data.

    ``dependability_by_combo`` maps (os_display, server_name) to a
    :class:`~repro.harness.metrics.DependabilityMetrics`.  Returns a dict
    of series name -> {combo: value}, matching the panels of the paper's
    figure (baseline vs faulty SPC/THR/RTM, ER%f, ADMf and its parts).
    """
    series = {
        "SPC_baseline": {}, "SPCf": {},
        "THR_baseline": {}, "THRf": {},
        "RTM_baseline": {}, "RTMf": {},
        "ER%f": {}, "ADMf": {},
        "MIS": {}, "KNS": {}, "KCP": {},
    }
    for combo, metrics in dependability_by_combo.items():
        series["SPC_baseline"][combo] = metrics.spc_baseline
        series["SPCf"][combo] = metrics.spcf
        series["THR_baseline"][combo] = metrics.thr_baseline
        series["THRf"][combo] = metrics.thrf
        series["RTM_baseline"][combo] = metrics.rtm_baseline_ms
        series["RTMf"][combo] = metrics.rtmf_ms
        series["ER%f"][combo] = metrics.erf_percent
        series["ADMf"][combo] = metrics.admf
        series["MIS"][combo] = metrics.mis
        series["KNS"][combo] = metrics.kns
        series["KCP"][combo] = metrics.kcp
    return series
