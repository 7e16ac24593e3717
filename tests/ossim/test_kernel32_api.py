"""Contract tests for the kernel32-like API (both builds)."""

from repro.ossim.modules.kernel3250 import (
    ERROR_FILE_NOT_FOUND,
    ERROR_INVALID_HANDLE,
    ERROR_SUCCESS,
)


def test_create_open_read_close_cycle(ctx):
    handle = ctx.api.CreateFileW("/site/dir0/index.html", "r", 3)
    assert handle != 0
    ok, buffer, count = ctx.api.ReadFile(handle, 4096)
    assert ok and count == 4096
    assert buffer is not None
    assert ctx.api.CloseHandle(handle)


def test_create_missing_file_sets_last_error(ctx):
    handle = ctx.api.CreateFileW("/site/dir0/none.html", "r", 3)
    assert handle == 0
    assert ctx.api.GetLastError() == ERROR_FILE_NOT_FOUND


def test_create_file_path_buffer_released(ctx):
    """CreateFileW must free the intermediate NT path on every path."""
    before = ctx.heap.live_blocks()
    handle = ctx.api.CreateFileW("/site/dir0/index.html", "r", 3)
    ctx.api.CloseHandle(handle)
    ctx.api.CreateFileW("/site/dir0/none.html", "r", 3)
    assert ctx.heap.live_blocks() == before


def test_create_new_disposition(ctx):
    handle = ctx.api.CreateFileW("/logs/k32.log", "rw", 1)
    assert handle != 0
    ctx.api.CloseHandle(handle)
    assert ctx.api.CreateFileW("/logs/k32.log", "rw", 1) == 0


def test_open_always_disposition(ctx):
    handle = ctx.api.CreateFileW("/logs/always.log", "a", 4)
    assert handle != 0
    ctx.api.CloseHandle(handle)
    handle = ctx.api.CreateFileW("/logs/always.log", "a", 4)
    assert handle != 0
    ctx.api.CloseHandle(handle)


def test_read_at_eof_is_success_zero(ctx):
    handle = ctx.api.CreateFileW("/site/dir0/small.txt", "r", 3)
    ctx.api.ReadFile(handle, 100)
    ok, buffer, count = ctx.api.ReadFile(handle, 10)
    assert ok and count == 0 and buffer is None
    assert ctx.api.GetLastError() == ERROR_SUCCESS
    ctx.api.CloseHandle(handle)


def test_read_invalid_handle(ctx):
    ok, _buffer, _count = ctx.api.ReadFile(0, 10)
    assert not ok
    assert ctx.api.GetLastError() == ERROR_INVALID_HANDLE


def test_write_file(ctx):
    handle = ctx.api.CreateFileW("/logs/write.log", "rw", 4)
    ok, written = ctx.api.WriteFile(handle, 256)
    assert ok and written == 256
    assert ctx.api.GetFileSize(handle) == 256
    ctx.api.CloseHandle(handle)


def test_write_negative_length(ctx):
    handle = ctx.api.CreateFileW("/logs/neg.log", "rw", 4)
    ok, _written = ctx.api.WriteFile(handle, -1)
    assert not ok
    ctx.api.CloseHandle(handle)


def test_set_file_pointer_methods(ctx):
    handle = ctx.api.CreateFileW("/site/dir0/index.html", "r", 3)
    assert ctx.api.SetFilePointer(handle, 100, 0) == 100   # FILE_BEGIN
    assert ctx.api.SetFilePointer(handle, 50, 1) == 150    # FILE_CURRENT
    assert ctx.api.SetFilePointer(handle, -96, 2) == 4000  # FILE_END
    ctx.api.CloseHandle(handle)


def test_set_file_pointer_invalid(ctx):
    handle = ctx.api.CreateFileW("/site/dir0/index.html", "r", 3)
    assert ctx.api.SetFilePointer(handle, -10, 0) == -1
    assert ctx.api.SetFilePointer(handle, 0, 7) == -1
    assert ctx.api.SetFilePointer(0, 0, 0) == -1
    ctx.api.CloseHandle(handle)


def test_get_file_size(ctx):
    handle = ctx.api.CreateFileW("/site/dir0/index.html", "r", 3)
    assert ctx.api.GetFileSize(handle) == 4096
    ctx.api.CloseHandle(handle)
    assert ctx.api.GetFileSize(0) == -1


def test_get_long_path_name(ctx):
    length, path = ctx.api.GetLongPathNameW("site//dir0//index.html")
    assert path == "/site/dir0/index.html"
    assert length == len(path)
    length, path = ctx.api.GetLongPathNameW("/site/dir0/none")
    assert length == 0


def test_delete_file(ctx):
    handle = ctx.api.CreateFileW("/logs/dead.log", "rw", 1)
    ctx.api.CloseHandle(handle)
    assert ctx.api.DeleteFileW("/logs/dead.log")
    assert not ctx.api.DeleteFileW("/logs/dead.log")


def test_close_invalid_handle(ctx):
    assert not ctx.api.CloseHandle(0)
    assert ctx.api.GetLastError() == ERROR_INVALID_HANDLE


def test_set_and_get_last_error(ctx):
    ctx.api.SetLastError(1234)
    assert ctx.api.GetLastError() == 1234


def test_win32_layer_forwards_to_ntdll(os_instance):
    """ReadFile must produce NtReadFile traffic (the Table 2 pairing)."""
    from repro.profiling.tracer import ApiCallTracer

    vfs = os_instance.kernel.vfs
    vfs.mkdir("/d", parents=True)
    vfs.create_file("/d/f", size=100)
    tracer = ApiCallTracer()
    os_instance.attach_tracer(tracer)
    ctx = os_instance.new_process()
    handle = ctx.api.CreateFileW("/d/f", "r", 3)
    ctx.api.ReadFile(handle, 50)
    ctx.api.CloseHandle(handle)
    counts = dict(tracer.counts)
    assert counts[("Kernel32", "ReadFile")] == 1
    assert counts[("Ntdll", "NtReadFile")] == 1
    assert counts[("Ntdll", "NtClose")] == 1
