"""Ablation: G-SWFIT mutation vs classic error interception.

DESIGN.md decision #1.  The paper argues mutation emulates the *fault*
while interception emulates only one pre-chosen *symptom*.  This bench
drives the same OS workload under (a) a sample of G-SWFIT mutants and
(b) interception stubs on the same functions, classifies the observable
outcome of each injection, and compares the diversity of failure modes.

Expected shape: mutation produces a spread across outcome classes —
including silent/latent faults and wrong-result runs, which interception
cannot produce at all (every interception is an immediate, loud failure).
"""

from repro.gswfit.injector import FaultInjector
from repro.gswfit.interception import (
    InterceptionFault,
    InterceptionInjector,
)
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.reporting.tables import TableBuilder
from repro.sim.errors import SimulationError

SAMPLE = 120

# The OS services the probe below exercises *and checks*: interception
# stubs are planted only here so both techniques get activated faults.
_PROBE_FOOTPRINT = (
    "CreateFileW", "RtlDosPathNameToNtPathName_U", "NtCreateFile",
    "ReadFile", "NtReadFile", "CloseHandle", "NtClose",
    "RtlAllocateHeap", "RtlFreeHeap", "RtlEnterCriticalSection",
)


def _probe(os_instance):
    """Drive one canonical OS workload; classify what happened."""
    ctx = os_instance.new_process()
    try:
        handle = ctx.api.CreateFileW("/d/f", "r", 3)
        if handle == 0:
            return "error_status"
        ok, buffer, count = ctx.api.ReadFile(handle, 300)
        closed = ctx.api.CloseHandle(handle)
        address = ctx.api.RtlAllocateHeap(128, 0)
        freed = ctx.api.RtlFreeHeap(address) if address else False
        ctx.api.RtlEnterCriticalSection("probe")
        ctx.api.RtlLeaveCriticalSection("probe")
    except SimulationError as exc:
        return type(exc).__name__
    if not ok or not closed or address == 0 or not freed:
        return "error_status"
    if count != 300 or buffer is None:
        return "wrong_result"
    return "silent"


def _outcome_distribution(inject, restore, faults):
    distribution = {}
    for fault in faults:
        kernel = SimKernel()
        kernel.vfs.mkdir("/d", parents=True)
        kernel.vfs.create_file("/d/f", size=300)
        os_instance = OsInstance(NT50, kernel)
        inject(fault, os_instance)
        try:
            outcome = _probe(os_instance)
        finally:
            restore(fault)
        distribution[outcome] = distribution.get(outcome, 0) + 1
    return distribution


def _run_ablation():
    faultload = scan_build(NT50).sample(SAMPLE, seed=9)
    mutation_injector = FaultInjector()

    def inject_mutation(location, os_instance):
        mutation_injector.os_instances = [os_instance]
        mutation_injector.inject(location)

    def restore_mutation(location):
        mutation_injector.restore(location)

    mutation = _outcome_distribution(
        inject_mutation, restore_mutation, list(faultload)
    )

    interception_injector = InterceptionInjector()
    modules_by_function = {
        loc.function: loc.module for loc in scan_build(NT50)
    }
    interceptions = []
    for function in _PROBE_FOOTPRINT:
        module = modules_by_function[function]
        for mode in ("error", "exception"):
            interceptions.append(
                InterceptionFault(module, function, mode=mode)
            )

    def inject_interception(fault, os_instance):
        interception_injector.os_instances = [os_instance]
        interception_injector.inject(fault)

    interception = _outcome_distribution(
        inject_interception, interception_injector.restore, interceptions
    )
    return mutation, interception


def test_ablation_injection_mode(benchmark):
    mutation, interception = benchmark.pedantic(
        _run_ablation, rounds=1, iterations=1
    )
    table = TableBuilder(
        ["Outcome", "G-SWFIT mutation", "Interception"],
        title="Ablation - failure-mode diversity per injection technique",
    )
    outcomes = sorted(set(mutation) | set(interception))
    for outcome in outcomes:
        table.add_row(outcome, mutation.get(outcome, 0),
                      interception.get(outcome, 0))
    print()
    print(table.render())

    total_mutation = sum(mutation.values())
    total_interception = sum(interception.values())
    # Interception forces a pre-chosen symptom: every activated stub is
    # loud.  Mutation emulates the fault itself, so most mutants are
    # latent on any single probe — the paper's accuracy argument.
    silent_mutation = mutation.get("silent", 0) / total_mutation
    silent_interception = (
        interception.get("silent", 0) / total_interception
    )
    assert silent_mutation > silent_interception
    # Interception can never hand back a *wrong* (but well-formed)
    # result; its stubs return contract-shaped errors or raise.
    assert interception.get("wrong_result", 0) == 0
    # Mutation covers at least as many distinct failure modes, and they
    # are not all crashes.
    assert len(mutation) >= len(interception)
    assert mutation.get("error_status", 0) > 0
