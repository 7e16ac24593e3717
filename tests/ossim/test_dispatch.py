"""Tests for the API dispatcher (tracing, charging, fault semantics)."""

import ast
from pathlib import Path

import pytest

from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
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


# One export of each of the 8 signature shapes (required, optional
# parameters after ctx), with a call of one argument too many and one of
# one too few (None: no argument can be left out).
WRONG_ARITY_CALLS = [
    ("GetLastError", (1,), None),                        # (0, 0)
    ("SetLastError", (5, 6), ()),                        # (1, 0)
    ("RtlAllocateHeap", (64, 0, 1), ()),                 # (1, 1)
    ("ReadFile", (1, 64, 0), (1,)),                      # (2, 0)
    ("NtReadFile", (1, 64, None, 0), (1,)),              # (2, 1)
    ("NtWriteFile", (1, 64, None, None, 0), (1,)),       # (2, 2)
    ("SetFilePointer", (1, 0, 0, 0), (1, 0)),            # (3, 0)
    ("NtCreateFile", ("/x", "r", 3, 0, 0), ("/x", "r")),  # (3, 1)
]


def _wrong_arity_cases():
    for name, too_many, too_few in WRONG_ARITY_CALLS:
        yield pytest.param(name, too_many, id=f"{name}-one-too-many")
        if too_few is not None:
            yield pytest.param(name, too_few, id=f"{name}-one-too-few")


@pytest.mark.parametrize("name, args", _wrong_arity_cases())
@pytest.mark.parametrize("fault_mode", [False, True],
                         ids=["pristine", "fault-mode"])
def test_wrong_arity_call_is_counted_charged_then_raised(
        osi, name, args, fault_mode):
    """A call with the wrong number of arguments is counted and charged
    the base cost like any other, then fails with the export's own
    TypeError: loud on a pristine OS, an access violation in fault
    mode."""
    osi.fault_mode = fault_mode
    ctx = osi.new_process()
    call = getattr(ctx.api, name)
    before = ctx.cpu.total_cycles
    expected = SimSegfault if fault_mode else TypeError
    with pytest.raises(expected) as exc_info:
        call(*args)
    assert ctx.api_calls == 1
    assert ctx.cpu.total_cycles - before == NT50.base_cost(name)
    message = str(exc_info.value)
    if fault_mode:
        assert message.startswith("fault in ")
        assert f"!{name}: TypeError: {name}() " in message
        assert isinstance(exc_info.value.cause, TypeError)
    else:
        assert message.startswith(f"{name}() ")


def test_omitted_optional_arguments_reach_the_exports_defaults(osi):
    """A wrapper passes an omitted optional argument as the export's own
    default: ``NtReadFile(handle, length)`` reads at ``offset=None`` and
    ``RtlAllocateHeap(size)`` allocates with ``flags=0``."""
    from repro.ossim.modules import ntdll50

    # No defaults of their own: only the exports' __defaults__ can fill
    # the parameters left out.
    def read_spy(ctx_arg, handle, length, offset):
        return handle, length, offset

    def allocate_spy(ctx_arg, size, flags):
        return size, flags

    ctx = osi.new_process()
    swaps = [(ntdll50.NtReadFile, read_spy),
             (ntdll50.RtlAllocateHeap, allocate_spy)]
    originals = [function.__code__ for function, _spy in swaps]
    try:
        for function, spy in swaps:
            function.__code__ = spy.__code__
        assert ctx.api.NtReadFile(3, 64) == (3, 64, None)
        assert ctx.api.NtReadFile(3, 64, 128) == (3, 64, 128)
        assert ctx.api.RtlAllocateHeap(32) == (32, 0)
        assert ctx.api.RtlAllocateHeap(32, 8) == (32, 8)
    finally:
        for (function, _spy), code in zip(swaps, originals):
            function.__code__ = code
    assert ctx.api_calls == 4


def test_every_base_cost_is_a_non_negative_int():
    """The wrappers add the base cost to the meter inline, which equals
    ``CpuMeter.charge`` only for a non-negative int."""
    from repro.ossim.builds import NT51

    for build in (NT50, NT51):
        for name in build.export_names():
            cost = build.base_cost(name)
            assert type(cost) is int and cost >= 0, (build, name, cost)


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
