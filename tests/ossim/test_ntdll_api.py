"""Contract tests for the ntdll-like API (both builds via the ctx fixture)."""

from repro.ossim.status import NtStatus
from repro.ossim.strings import UnicodeString, ansi_view, unicode_view


def _nt_path(ctx, dos_path):
    status, nt_path = ctx.api.RtlDosPathNameToNtPathName_U(dos_path)
    assert status == NtStatus.SUCCESS
    return nt_path


# ----------------------------------------------------------------------
# Strings
# ----------------------------------------------------------------------

def test_init_unicode_string(ctx):
    dest = UnicodeString()
    assert ctx.api.RtlInitUnicodeString(dest, "abc") == NtStatus.SUCCESS
    assert dest.text() == "abc"
    assert dest.consistent()


def test_init_unicode_string_none_source(ctx):
    dest = unicode_view("old")
    ctx.api.RtlInitUnicodeString(dest, None)
    assert dest.text() == ""


def test_init_unicode_string_none_dest(ctx):
    assert (
        ctx.api.RtlInitUnicodeString(None, "x")
        == NtStatus.INVALID_PARAMETER
    )


def test_unicode_to_multibyte_roundtrip(ctx):
    source = unicode_view("hello.html")
    status, ansi, written = ctx.api.RtlUnicodeToMultiByteN(source, 64)
    assert status == NtStatus.SUCCESS
    assert written == 10
    assert ansi.text() == "hello.html"


def test_unicode_to_multibyte_truncates(ctx):
    source = unicode_view("hello")
    status, ansi, written = ctx.api.RtlUnicodeToMultiByteN(source, 3)
    assert status == NtStatus.BUFFER_TOO_SMALL
    assert written == 3
    assert ansi.text() == "hel"


def test_multibyte_to_unicode(ctx):
    source = ansi_view("abc")
    status, wide, chars = ctx.api.RtlMultiByteToUnicodeN(source, 16)
    assert status == NtStatus.SUCCESS
    assert chars == 3
    assert wide.text() == "abc"


def test_conversion_invalid_parameters(ctx):
    status, _result, _n = ctx.api.RtlUnicodeToMultiByteN(None, 10)
    assert status == NtStatus.INVALID_PARAMETER
    status, _result, _n = ctx.api.RtlMultiByteToUnicodeN(
        ansi_view("x"), -1
    )
    assert status == NtStatus.INVALID_PARAMETER


# ----------------------------------------------------------------------
# Path translation
# ----------------------------------------------------------------------

def test_dos_path_translation_normalizes(ctx):
    nt_path = _nt_path(ctx, "C:\\Site\\dir0\\INDEX.HTML")
    assert nt_path.text() == "/site/dir0/index.html"
    ctx.api.RtlFreeUnicodeString(nt_path)


def test_dos_path_allocates_from_heap(ctx):
    before = ctx.heap.live_blocks()
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    assert ctx.heap.live_blocks() == before + 1
    ctx.api.RtlFreeUnicodeString(nt_path)
    assert ctx.heap.live_blocks() == before


def test_dos_path_dotdot_resolution(ctx):
    nt_path = _nt_path(ctx, "/site/other/../dir0/./index.html")
    assert nt_path.text() == "/site/dir0/index.html"
    ctx.api.RtlFreeUnicodeString(nt_path)


def test_dos_path_rejects_illegal_chars(ctx):
    status, result = ctx.api.RtlDosPathNameToNtPathName_U("/site/a<b")
    assert status == NtStatus.OBJECT_NAME_NOT_FOUND
    assert result is None


def test_dos_path_rejects_empty_and_none(ctx):
    assert ctx.api.RtlDosPathNameToNtPathName_U("")[0] == (
        NtStatus.OBJECT_PATH_NOT_FOUND
    )
    assert ctx.api.RtlDosPathNameToNtPathName_U(None)[0] == (
        NtStatus.INVALID_PARAMETER
    )


def test_dos_path_rejects_overlong(ctx):
    status, _ = ctx.api.RtlDosPathNameToNtPathName_U("/a" * 200)
    assert status == NtStatus.OBJECT_PATH_NOT_FOUND


def test_get_full_path_name(ctx):
    length, full = ctx.api.RtlGetFullPathName_U("site//dir0/index.html")
    assert full == "/site/dir0/index.html"
    assert length == len(full)


# ----------------------------------------------------------------------
# Heap
# ----------------------------------------------------------------------

def test_heap_alloc_free(ctx):
    address = ctx.api.RtlAllocateHeap(256, 0)
    assert address != 0
    assert ctx.api.RtlSizeHeap(address) >= 256
    assert ctx.api.RtlFreeHeap(address)


def test_heap_zero_memory_flag(ctx):
    address = ctx.api.RtlAllocateHeap(64, 0x08)
    assert ctx.heap.is_zeroed(address)
    ctx.api.RtlFreeHeap(address)


def test_heap_rejects_bad_sizes(ctx):
    assert ctx.api.RtlAllocateHeap(-1, 0) == 0
    assert ctx.api.RtlAllocateHeap(32 * 1024 * 1024, 0) == 0


def test_heap_free_null_is_false(ctx):
    assert not ctx.api.RtlFreeHeap(0)


def test_heap_size_of_invalid(ctx):
    assert ctx.api.RtlSizeHeap(0) == -1
    assert ctx.api.RtlSizeHeap(0xDEAD) == -1


# ----------------------------------------------------------------------
# Critical sections
# ----------------------------------------------------------------------

def test_critical_section_cycle(ctx):
    assert ctx.api.RtlEnterCriticalSection("cs") == NtStatus.SUCCESS
    assert ctx.api.RtlLeaveCriticalSection("cs") == NtStatus.SUCCESS


def test_critical_section_bad_leave_reports(ctx):
    assert ctx.api.RtlLeaveCriticalSection("never") == (
        NtStatus.INVALID_PARAMETER
    )


def test_critical_section_none_name(ctx):
    assert ctx.api.RtlEnterCriticalSection(None) == (
        NtStatus.INVALID_PARAMETER
    )


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------

def test_open_read_close(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    status, handle = ctx.api.NtOpenFile(nt_path, "r")
    assert status == NtStatus.SUCCESS and handle != 0
    status, buffer, count = ctx.api.NtReadFile(handle, 1000)
    assert status == NtStatus.SUCCESS and count == 1000
    assert buffer.length == 1000
    assert ctx.api.NtClose(handle) == NtStatus.SUCCESS
    ctx.api.RtlFreeUnicodeString(nt_path)


def test_read_advances_cursor(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    _status, handle = ctx.api.NtOpenFile(nt_path, "r")
    ctx.api.NtReadFile(handle, 4000)
    status, _buffer, count = ctx.api.NtReadFile(handle, 1000)
    assert status == NtStatus.SUCCESS
    assert count == 96  # 4096-byte file
    status, _buffer, _count = ctx.api.NtReadFile(handle, 10)
    assert status == NtStatus.END_OF_FILE
    ctx.api.NtClose(handle)


def test_read_at_explicit_offset_does_not_move_cursor(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    _status, handle = ctx.api.NtOpenFile(nt_path, "r")
    ctx.api.NtReadFile(handle, 100, 500)
    status, info = ctx.api.NtQueryInformationFile(handle)
    assert info["position"] == 0
    ctx.api.NtClose(handle)


def test_open_missing_file(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/nope.html")
    status, handle = ctx.api.NtOpenFile(nt_path, "r")
    assert status == NtStatus.OBJECT_NAME_NOT_FOUND
    assert handle == 0


def test_open_directory_rejected(ctx):
    nt_path = _nt_path(ctx, "/site/dir0")
    status, _handle = ctx.api.NtOpenFile(nt_path, "r")
    assert status == NtStatus.FILE_IS_A_DIRECTORY


def test_create_new_file_and_collision(ctx):
    nt_path = _nt_path(ctx, "/logs/new.log")
    status, handle = ctx.api.NtCreateFile(nt_path, "rw", 2)
    assert status == NtStatus.SUCCESS
    ctx.api.NtClose(handle)
    status, _handle = ctx.api.NtCreateFile(nt_path, "rw", 2)
    assert status == NtStatus.OBJECT_NAME_COLLISION


def test_open_if_creates_when_missing(ctx):
    nt_path = _nt_path(ctx, "/logs/either.log")
    status, handle = ctx.api.NtCreateFile(nt_path, "rw", 3)
    assert status == NtStatus.SUCCESS
    ctx.api.NtClose(handle)
    status, handle = ctx.api.NtCreateFile(nt_path, "rw", 3)
    assert status == NtStatus.SUCCESS
    ctx.api.NtClose(handle)


def test_create_invalid_parameters(ctx):
    assert ctx.api.NtCreateFile(None, "r", 1)[0] == (
        NtStatus.INVALID_PARAMETER
    )
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    assert ctx.api.NtCreateFile(nt_path, "", 1)[0] == (
        NtStatus.INVALID_PARAMETER
    )
    assert ctx.api.NtCreateFile(nt_path, "r", 9)[0] == (
        NtStatus.INVALID_PARAMETER
    )


def test_write_requires_write_access(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    _status, handle = ctx.api.NtOpenFile(nt_path, "r")
    status, _written = ctx.api.NtWriteFile(handle, 10)
    assert status == NtStatus.ACCESS_DENIED
    ctx.api.NtClose(handle)


def test_write_appends_via_cursor(ctx):
    nt_path = _nt_path(ctx, "/logs/w.log")
    _status, handle = ctx.api.NtCreateFile(nt_path, "rw", 2)
    status, written = ctx.api.NtWriteFile(handle, 100)
    assert status == NtStatus.SUCCESS and written == 100
    status, written = ctx.api.NtWriteFile(handle, 50)
    assert status == NtStatus.SUCCESS
    _status, info = ctx.api.NtQueryInformationFile(handle)
    assert info["size"] == 150
    ctx.api.NtClose(handle)


def test_read_requires_read_access(ctx):
    nt_path = _nt_path(ctx, "/logs/wo.log")
    _status, handle = ctx.api.NtCreateFile(nt_path, "w", 2)
    status, _buffer, _count = ctx.api.NtReadFile(handle, 1)
    assert status == NtStatus.ACCESS_DENIED
    ctx.api.NtClose(handle)


def test_invalid_handle_paths(ctx):
    assert ctx.api.NtClose(0) == NtStatus.INVALID_HANDLE
    assert ctx.api.NtClose(999) == NtStatus.INVALID_HANDLE
    assert ctx.api.NtReadFile(999, 10)[0] == NtStatus.INVALID_HANDLE
    assert ctx.api.NtWriteFile(999, 10)[0] == NtStatus.INVALID_HANDLE
    assert ctx.api.NtQueryInformationFile(999)[0] == (
        NtStatus.INVALID_HANDLE
    )
    assert ctx.api.NtSetInformationFile(999, 0) == (
        NtStatus.INVALID_HANDLE
    )


def test_set_information_moves_cursor(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    _status, handle = ctx.api.NtOpenFile(nt_path, "r")
    assert ctx.api.NtSetInformationFile(handle, 4000) == NtStatus.SUCCESS
    _status, _buffer, count = ctx.api.NtReadFile(handle, 1000)
    assert count == 96
    assert ctx.api.NtSetInformationFile(handle, -1) == (
        NtStatus.INVALID_PARAMETER
    )
    ctx.api.NtClose(handle)


def test_double_close_rejected(ctx):
    nt_path = _nt_path(ctx, "/site/dir0/index.html")
    _status, handle = ctx.api.NtOpenFile(nt_path, "r")
    assert ctx.api.NtClose(handle) == NtStatus.SUCCESS
    assert ctx.api.NtClose(handle) == NtStatus.INVALID_HANDLE


# ----------------------------------------------------------------------
# Virtual memory
# ----------------------------------------------------------------------

def test_query_and_protect_arena(ctx):
    base = ctx.arena.base
    status, info = ctx.api.NtQueryVirtualMemory(base)
    assert status == NtStatus.SUCCESS
    assert info[0] == base
    status, old = ctx.api.NtProtectVirtualMemory(base, 4096, 0x02)
    assert status == NtStatus.SUCCESS
    assert old == 0x04  # PAGE_READWRITE
    ctx.api.NtProtectVirtualMemory(base, 4096, 0x04)


def test_protect_invalid_inputs(ctx):
    assert ctx.api.NtProtectVirtualMemory(0, 10, 0x02)[0] == (
        NtStatus.INVALID_PARAMETER
    )
    assert ctx.api.NtProtectVirtualMemory(
        ctx.arena.base, 4096, 0x77
    )[0] == NtStatus.INVALID_PARAMETER


def test_query_unmapped(ctx):
    assert ctx.api.NtQueryVirtualMemory(3)[0] == (
        NtStatus.INVALID_PARAMETER
    )


# ----------------------------------------------------------------------
# Misc services
# ----------------------------------------------------------------------

def test_delay_execution_charges(ctx):
    before = ctx.cpu.total_cycles
    assert ctx.api.NtDelayExecution(4000) == NtStatus.SUCCESS
    assert ctx.cpu.total_cycles > before
    assert ctx.api.NtDelayExecution(-1) == NtStatus.INVALID_PARAMETER


def test_query_system_time(ctx):
    status, ticks = ctx.api.NtQuerySystemTime()
    assert status == NtStatus.SUCCESS
    assert ticks == 0  # default time source
