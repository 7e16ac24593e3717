"""Tests for status codes and process context lifecycle."""

from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.ossim.status import NtStatus, nt_success


def test_success_helpers():
    assert nt_success(NtStatus.SUCCESS)
    assert nt_success(NtStatus.PENDING)
    assert not nt_success(NtStatus.INVALID_HANDLE)
    assert NtStatus.SUCCESS.is_success()
    assert NtStatus.ACCESS_DENIED.is_error()
    assert not NtStatus.PENDING.is_error()


def test_status_values_match_nt():
    assert int(NtStatus.SUCCESS) == 0
    assert int(NtStatus.ACCESS_VIOLATION) == 0xC0000005
    assert int(NtStatus.INVALID_HANDLE) == 0xC0000008
    assert int(NtStatus.HEAP_CORRUPTION) == 0xC0000374


def test_process_ids_unique():
    kernel = SimKernel()
    a = kernel.new_process()
    b = kernel.new_process()
    assert a.pid != b.pid
    assert kernel.processes_created == 2


def test_process_state_isolated():
    kernel = SimKernel()
    a = kernel.new_process()
    b = kernel.new_process()
    address = a.heap.allocate(100)
    assert b.heap.block_size(address) == -1
    a.sync.get("x").enter(a.current_thread)
    assert not b.sync.get("x").held()


def test_processes_share_kernel_vfs():
    kernel = SimKernel()
    kernel.vfs.mkdir("/shared", parents=True)
    a = kernel.new_process()
    b = kernel.new_process()
    assert a.vfs is b.vfs


def test_arena_reserved_at_birth():
    ctx = SimKernel().new_process()
    assert ctx.arena is not None
    assert ctx.vmem.find(ctx.arena.base) is ctx.arena


def test_thread_died_releases_locks():
    ctx = SimKernel().new_process()
    ctx.set_thread("w1")
    ctx.sync.get("a").enter("w1")
    ctx.sync.get("b").enter("w1")
    assert ctx.thread_died("w1") == 2
    assert ctx.sync.leaked_sections() == []


def test_terminate_closes_handles():
    osi = OsInstance(NT50, SimKernel())
    osi.kernel.vfs.mkdir("/d", parents=True)
    osi.kernel.vfs.create_file("/d/f", size=10)
    ctx = osi.new_process()
    handle = ctx.api.CreateFileW("/d/f", "r", 3)
    assert handle != 0
    ctx.terminate()
    assert len(ctx.handles) == 0
    assert ctx.terminated
    ctx.terminate()  # idempotent


def test_health_report_shape():
    ctx = SimKernel().new_process()
    report = ctx.health_report()
    assert set(report) == {
        "pid", "heap", "open_handles", "leaked_sections",
        "api_calls", "terminated",
    }


def test_time_source_wiring():
    kernel = SimKernel(time_source=lambda: 2.5)
    osi = OsInstance(NT50, kernel)
    ctx = osi.new_process()
    _status, ticks = ctx.api.NtQuerySystemTime()
    assert ticks == 25_000_000  # 2.5 s in 100 ns units
