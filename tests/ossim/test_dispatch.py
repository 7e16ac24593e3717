"""Tests for the API dispatcher (tracing, charging, fault semantics)."""

import ast
from pathlib import Path

import pytest

from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import ApiTable, OsInstance
from repro.ossim.status import NtStatus
from repro.profiling.tracer import ApiCallTracer
from repro.sim.errors import SimSegfault


@pytest.fixture
def osi():
    return OsInstance(NT50, SimKernel())


def test_unknown_export_raises_attribute_error(osi):
    ctx = osi.new_process()
    with pytest.raises(AttributeError):
        ctx.api.NtTotallyMadeUp


def test_nt51_only_export_absent_on_nt50(osi):
    ctx = osi.new_process()
    with pytest.raises(AttributeError):
        ctx.api.NtQueryAttributesFile


def test_every_export_resolves(osi):
    ctx = osi.new_process()
    for name in ctx.api.export_names():
        assert callable(getattr(ctx.api, name))


def test_calls_charge_base_cost(osi):
    ctx = osi.new_process()
    before = ctx.cpu.total_cycles
    ctx.api.GetLastError()
    cost = ctx.cpu.total_cycles - before
    assert cost >= NT50.base_cost("GetLastError")


def test_calls_counted_on_context(osi):
    ctx = osi.new_process()
    ctx.api.GetLastError()
    ctx.api.GetLastError()
    assert ctx.api_calls == 2


def test_tracer_sees_calls_with_module_names(osi):
    tracer = ApiCallTracer()
    osi.attach_tracer(tracer)
    ctx = osi.new_process()
    ctx.api.RtlEnterCriticalSection("x")
    ctx.api.RtlLeaveCriticalSection("x")
    assert tracer.counts[("Ntdll", "RtlEnterCriticalSection")] == 1
    assert tracer.total_calls == 2


def test_tracer_detach(osi):
    tracer = ApiCallTracer()
    osi.attach_tracer(tracer)
    ctx = osi.new_process()
    ctx.api.GetLastError()
    osi.attach_tracer(None)
    ctx.api.GetLastError()
    assert tracer.total_calls == 1


def test_tracer_attached_late_sees_existing_processes(osi):
    """Attaching rebuilds the wrappers of already-bound tables."""
    ctx = osi.new_process()
    ctx.api.GetLastError()
    tracer = ApiCallTracer()
    osi.attach_tracer(tracer)
    ctx.api.GetLastError()
    assert tracer.total_calls == 1


def test_untraced_wrapper_carries_no_tracer_reference(osi):
    """The zero-overhead guarantee is structural: with no tracer
    attached, the wrapper's closure and names contain no trace of
    tracing — there is no branch left to mispredict."""
    ctx = osi.new_process()
    wrapper = ctx.api.GetLastError
    cells = [cell.cell_contents for cell in wrapper.__closure__]
    assert not any(isinstance(cell, ApiCallTracer) for cell in cells)
    assert "tracer" not in wrapper.__code__.co_names
    assert "record" not in wrapper.__code__.co_freevars
    tracer = ApiCallTracer()
    osi.attach_tracer(tracer)
    traced = ctx.api.GetLastError
    assert traced is not wrapper
    assert tracer.record in [
        cell.cell_contents for cell in traced.__closure__
    ]
    osi.attach_tracer(None)
    detached = ctx.api.GetLastError
    assert "record" not in detached.__code__.co_freevars


def test_wrapper_cached_in_instance_dict(osi):
    """Repeat lookups bypass __getattr__ (same object, in __dict__)."""
    ctx = osi.new_process()
    first = ctx.api.GetLastError
    assert ctx.api.GetLastError is first
    assert ctx.api.__dict__["GetLastError"] is first


def test_pristine_os_propagates_our_bugs(osi):
    """Without fault_mode, unexpected exceptions must stay loud."""
    ctx = osi.new_process()
    with pytest.raises(TypeError):
        ctx.api.RtlAllocateHeap("not a size", 0)


def test_fault_mode_converts_to_segfault(osi):
    osi.fault_mode = True
    ctx = osi.new_process()
    with pytest.raises(SimSegfault):
        ctx.api.RtlAllocateHeap("not a size", 0)


def test_fault_mode_preserves_simulated_conditions(osi):
    """Machine-level exceptions keep their type even in fault mode."""
    osi.fault_mode = True
    ctx = osi.new_process()
    ctx.api.RtlEnterCriticalSection("leak")
    other = osi.new_process()
    # Different process: its own registry; same process, other thread:
    ctx.set_thread("other-thread")
    from repro.sim.errors import SimBlockedForever

    with pytest.raises(SimBlockedForever):
        ctx.api.RtlEnterCriticalSection("leak")


def test_code_swap_visible_through_existing_table(osi):
    """The dispatch must see a __code__ swap done after binding."""
    from repro.ossim.modules import ntdll50

    ctx = osi.new_process()
    assert ctx.api.RtlSizeHeap(0) == -1

    def fake(ctx_arg, address):
        return 12345

    original = ntdll50.RtlSizeHeap.__code__
    try:
        ntdll50.RtlSizeHeap.__code__ = fake.__code__
        assert ctx.api.RtlSizeHeap(0) == 12345
    finally:
        ntdll50.RtlSizeHeap.__code__ = original
    assert ctx.api.RtlSizeHeap(0) == -1


def test_boot_count_increments():
    kernel = SimKernel()
    OsInstance(NT50, kernel)
    OsInstance(NT50, kernel)
    assert kernel.boot_count == 2


def _through_api_table(call):
    """True for ``api.X(...)`` and ``<anything>.api.X(...)`` calls."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value
    return (
        (isinstance(owner, ast.Name) and owner.id == "api")
        or (isinstance(owner, ast.Attribute) and owner.attr == "api")
    )


def test_wrappers_take_positional_arguments_only(osi):
    """A wrapper has no ``**kwargs``, so no caller may pass a keyword:
    inside a request handler the TypeError would read as a crash."""
    set_last_error = osi.new_process().api.SetLastError
    with pytest.raises(TypeError):
        set_last_error(error_code=5)
    root = Path(__file__).resolve().parents[2]
    offenders = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [
                f"{path.relative_to(root)}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and _through_api_table(node) and node.keywords
            ]
    assert offenders == []
