"""Property-based tests over the whole mutation surface."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.gswfit.mutator import build_mutant
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT51
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.gswfit.injector import FaultInjector
from repro.sim.errors import SimulationError

_FAULTLOAD_51 = scan_build(NT51)


def test_every_nt51_location_builds_a_mutant():
    for location in _FAULTLOAD_51:
        _function, code = build_mutant(location)
        assert code is not None


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(min_value=0, max_value=len(_FAULTLOAD_51) - 1))
def test_property_any_injected_fault_keeps_os_callable(index):
    """With any single fault active, driving the OS either works, fails
    with a status, or fails with a *simulated* condition — never with an
    uncontrolled Python error escaping the dispatch layer."""
    location = _FAULTLOAD_51[index]
    kernel = SimKernel()
    kernel.vfs.mkdir("/d", parents=True)
    kernel.vfs.create_file("/d/f", size=500)
    os_instance = OsInstance(NT51, kernel)
    injector = FaultInjector(os_instances=[os_instance])
    ctx = os_instance.new_process()
    with injector.injected(location):
        try:
            handle = ctx.api.CreateFileW("/d/f", "r", 3)
            if handle:
                ctx.api.ReadFile(handle, 200)
                ctx.api.SetFilePointer(handle, 0, 0)
                ctx.api.CloseHandle(handle)
            address = ctx.api.RtlAllocateHeap(128, 0)
            if address:
                ctx.api.RtlFreeHeap(address)
            ctx.api.RtlEnterCriticalSection("probe")
            ctx.api.RtlLeaveCriticalSection("probe")
        except SimulationError:
            pass  # segfault / blocked / budget: legitimate fault outcomes


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.integers(min_value=0, max_value=len(_FAULTLOAD_51) - 1))
def test_property_restore_is_exact(index):
    """After restore, the function object carries its original code."""
    location = _FAULTLOAD_51[index]
    injector = FaultInjector()
    from repro.gswfit.mutator import resolve_function

    function = resolve_function(location)
    original = function.__code__
    injector.inject(location)
    assert function.__code__ is not original
    injector.restore(location)
    assert function.__code__ is original
