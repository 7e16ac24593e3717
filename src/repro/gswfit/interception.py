"""Error-interception injector — the ablation baseline.

Before G-SWFIT, most software-implemented fault injection intercepted API
calls and *substituted their effects*: return an error code, or raise an
exception, without changing any code.  The paper's accuracy argument is
that such interception emulates only a fault's immediate *symptom*, while
mutation emulates the fault itself, whose symptoms are then free to be
wrong values, leaks, hangs, corruption, or nothing at all.

:class:`InterceptionInjector` implements the old style against the same
FIT functions so the ablation bench can compare the diversity of failure
modes the two approaches induce.  Mechanically it reuses the ``__code__``
swap: the "mutant" is a stub with the original signature that fails in one
of two fixed ways.
"""

import ast
from contextlib import contextmanager

from repro.gswfit.astutils import FunctionImage
from repro.gswfit.injector import check_fit_boundary
from repro.gswfit.mutator import resolve_function

__all__ = ["InterceptionFault", "InterceptionInjector"]

MODES = ("error", "exception")

# What "return an error" means per function, mirroring each contract.
# Functions not listed fall back to exception mode.
_ERROR_STUBS = {
    "RtlAllocateHeap": "return 0",
    "RtlFreeHeap": "return False",
    "RtlSizeHeap": "return -1",
    "NtClose": "return NtStatus.INVALID_HANDLE",
    "NtCreateFile": "return (NtStatus.ACCESS_DENIED, 0)",
    "NtOpenFile": "return (NtStatus.ACCESS_DENIED, 0)",
    "NtReadFile": "return (NtStatus.ACCESS_DENIED, None, 0)",
    "NtWriteFile": "return (NtStatus.ACCESS_DENIED, 0)",
    "NtQueryInformationFile": "return (NtStatus.INVALID_HANDLE, None)",
    "NtSetInformationFile": "return NtStatus.INVALID_HANDLE",
    "NtProtectVirtualMemory": "return (NtStatus.ACCESS_VIOLATION, 0)",
    "NtQueryVirtualMemory": "return (NtStatus.INVALID_PARAMETER, None)",
    "RtlEnterCriticalSection": "return NtStatus.INVALID_PARAMETER",
    "RtlLeaveCriticalSection": "return NtStatus.INVALID_PARAMETER",
    "RtlInitUnicodeString": "return NtStatus.INVALID_PARAMETER",
    "RtlInitAnsiString": "return NtStatus.INVALID_PARAMETER",
    "RtlFreeUnicodeString": "return NtStatus.INVALID_PARAMETER",
    "RtlUnicodeToMultiByteN":
        "return (NtStatus.INVALID_PARAMETER, None, 0)",
    "RtlMultiByteToUnicodeN":
        "return (NtStatus.INVALID_PARAMETER, None, 0)",
    "RtlDosPathNameToNtPathName_U":
        "return (NtStatus.OBJECT_NAME_NOT_FOUND, None)",
    "RtlGetFullPathName_U": "return (0, '')",
    "CloseHandle": "return False",
    "CreateFileW": "return 0",
    "ReadFile": "return (False, None, 0)",
    "WriteFile": "return (False, 0)",
    "SetFilePointer": "return -1",
    "GetFileSize": "return -1",
    "GetLongPathNameW": "return (0, '')",
    "DeleteFileW": "return False",
}

_EXCEPTION_STUB = (
    "raise SimSegfault('interception fault in {name}')"
)


class InterceptionFault:
    """One interception: a target function plus a failure mode."""

    def __init__(self, module, function, mode="error"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.module = module
        self.function = function
        self.mode = mode

    @property
    def fault_id(self):
        return f"intercept:{self.module}:{self.function}:{self.mode}"

    def __repr__(self):
        return f"InterceptionFault({self.function}, mode={self.mode})"


class InterceptionInjector:
    """Applies and removes interception stubs on live FIT functions."""

    def __init__(self, os_instances=()):
        self.os_instances = list(os_instances)
        self._originals = {}

    def _stub_code(self, fault, function):
        image = FunctionImage(function, module_name=fault.module)
        fdef = image.fdef
        if fault.mode == "error" and fault.function in _ERROR_STUBS:
            body_source = _ERROR_STUBS[fault.function]
        else:
            body_source = _EXCEPTION_STUB.format(name=fault.function)
        stub_body = ast.parse(body_source).body
        fdef.body = stub_body
        ast.fix_missing_locations(image.tree)
        # The swapped code runs with the FIT module's globals, so the
        # exception type must be resolvable there.
        from repro.sim.errors import SimSegfault

        function.__globals__.setdefault("SimSegfault", SimSegfault)
        namespace = dict(function.__globals__)
        code = compile(image.tree, f"<{fault.fault_id}>", "exec")
        exec(code, namespace)  # noqa: S102 - compiling our own stub
        return namespace[function.__name__].__code__

    def inject(self, fault):
        """Swap the target for its interception stub."""
        check_fit_boundary(fault.module)
        function = resolve_function(_Location(fault))
        key = (fault.module, fault.function)
        if key not in self._originals:
            self._originals[key] = function.__code__
        function.__code__ = self._stub_code(fault, function)
        for os_instance in self.os_instances:
            os_instance.fault_mode = True

    def restore(self, fault):
        key = (fault.module, fault.function)
        original = self._originals.pop(key, None)
        if original is not None:
            function = resolve_function(_Location(fault))
            function.__code__ = original
        if not self._originals:
            for os_instance in self.os_instances:
                os_instance.fault_mode = False

    def restore_all(self):
        for (module, function_name), original in list(
            self._originals.items()
        ):
            fault = InterceptionFault(module, function_name)
            function = resolve_function(_Location(fault))
            function.__code__ = original
        self._originals.clear()
        for os_instance in self.os_instances:
            os_instance.fault_mode = False

    @contextmanager
    def injected(self, fault):
        self.inject(fault)
        try:
            yield self
        finally:
            self.restore(fault)


class _Location:
    """Adapter giving :func:`resolve_function` what it expects."""

    def __init__(self, fault):
        self.module = fault.module
        self.function = fault.function
