"""Bench: compiling the operator library from its specs is cheap.

Every process that scans or builds a mutant compiles the twelve Table 1
specs (``repro.gswfit.dsl.builtin_specs``) on first use, so validating
and compiling the whole corpus is a start-up cost of every CLI run
and campaign worker.  The claim: it costs less than a
single whole-build scan, so it stays invisible next to the scan it feeds
(and the scan itself is cached).  Scan throughput is guarded end to end
by the ``faultload`` workload of ``benchmarks/e2e``.

Set ``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job does) to shrink
the workloads — smoke mode checks the machinery, not the numbers.
"""

import os
import time

from repro.gswfit.astutils import FunctionImage
from repro.gswfit.dsl import OperatorSpec, compile_spec
from repro.gswfit.dsl.builtin_specs import builtin_spec, builtin_spec_names
from repro.gswfit.operators import collect_sites, operator_library
from repro.ossim.builds import NT50, NT51

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
COMPILE_ROUNDS = 3 if SMOKE else 10


def _fit_functions(build):
    for _display_name, module in build.modules:
        names = list(module.__exports__)
        names.extend(getattr(module, "__internal__", []))
        for name in names:
            yield module, getattr(module, name)


def _fresh_images():
    # Fresh images keep the per-image lazy caches cold.
    return [
        FunctionImage(function, module_name=module.__name__)
        for build in (NT50, NT51)
        for module, function in _fit_functions(build)
    ]


# ----------------------------------------------------------------------
# Spec compilation: a start-up fee, not a hot path
# ----------------------------------------------------------------------
def test_spec_compile_overhead(benchmark):
    corpus = [builtin_spec(name) for name in builtin_spec_names()]

    def regenerate():
        started = time.perf_counter()
        for _ in range(COMPILE_ROUNDS):
            for raw in corpus:
                compile_spec(OperatorSpec.from_dict(raw))
        compile_all = (time.perf_counter() - started) / COMPILE_ROUNDS
        operators = list(operator_library().values())
        images = _fresh_images()
        started = time.perf_counter()
        for image in images:
            collect_sites(image, operators)
        scan = time.perf_counter() - started
        return compile_all, scan

    compile_all, scan = benchmark.pedantic(regenerate, rounds=1,
                                           iterations=1)
    per_spec = compile_all / len(corpus)
    scans_per_compile = scan / max(compile_all, 1e-9)
    print()
    print(f"compile: {per_spec * 1e3:.3f}ms/spec  "
          f"corpus={compile_all * 1e3:.2f}ms  "
          f"= 1/{scans_per_compile:.0f} of a build scan")
    assert compile_all < scan, (
        f"compiling {len(corpus)} specs ({compile_all * 1e3:.1f}ms) "
        f"costs more than a whole-build scan ({scan * 1e3:.1f}ms)"
    )

