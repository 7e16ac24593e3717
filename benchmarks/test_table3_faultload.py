"""Bench: regenerate Table 3 (faultload details per OS build).

Runs the full faultload-definition pipeline (scan + profile + fine-tune)
for both OS builds and prints the number of faults per fault type.

Shape targets (vs the paper's 1714/2927 faults): the XP-analogue faultload
is substantially larger than the 2000-analogue; MIA is the most frequent
type on both; MVAV and WAEP are among the rarest.
"""

from _bench_common import bench_config

from repro.pipeline import FaultloadPipeline
from repro.reporting.compare import compare_shape, table3_shape_checks
from repro.reporting.paper import PAPER
from repro.reporting.report import table3_faultload_details
from repro.ossim.builds import get_build


def _regenerate():
    faultloads = {}
    for os_codename in ("nt50", "nt51"):
        config = bench_config(os_codename=os_codename)
        pipeline = FaultloadPipeline(config, profile_seconds=15.0)
        faultloads[os_codename] = pipeline.run()
    return faultloads


def test_table3_faultload(benchmark):
    faultloads = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    display = {
        get_build(codename).display_name: faultload
        for codename, faultload in faultloads.items()
    }
    print()
    print(table3_faultload_details(display).render())
    print(f"(paper: {PAPER['table3']['win2000']['total']} faults on "
          f"Windows 2000, {PAPER['table3']['winxp']['total']} on XP)")

    checks = table3_shape_checks(
        faultloads["nt50"].counts_by_type(),
        faultloads["nt51"].counts_by_type(),
        len(faultloads["nt50"]),
        len(faultloads["nt51"]),
    )
    passed, report = compare_shape(checks)
    print(report)
    assert passed
