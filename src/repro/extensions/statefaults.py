"""State-level fault models (hardware and operator faults).

Unlike the software faultload — which mutates *code* — these faults
perturb *state*: machine memory, disk behaviour, or the system's
configuration, the way a DRAM bit-flip, a dying disk, or a fat-fingered
administrator would.  Each fault knows how to apply itself to a
:class:`~repro.harness.machine.ServerMachine` and how to revert.  A
faultload of them runs on the harness's one slot walk
(:meth:`~repro.harness.experiment.WebServerExperiment.run_slots`), which
hands each state fault to a :class:`StateFaultInjector` built for the
slot's machine, so the slot structure (inject, exercise, remove,
repair, audit) is the G-SWFIT campaign's own.
"""

from contextlib import contextmanager

from repro.faults.faultload import Faultload

__all__ = [
    "ConfigFileRemoval",
    "DiskReadErrorBurst",
    "HeapMetadataCorruption",
    "LogVolumeFull",
    "MistakenProcessKill",
    "StaleHandleFault",
    "StateFault",
    "StateFaultInjector",
    "class_faultload",
    "standard_extension_faultload",
]

HARDWARE = "hardware"
OPERATOR = "operator"


class StateFault:
    """One applicable/revertible state fault."""

    name = "state-fault"
    fault_class = HARDWARE
    # No mutant, probe or G-SWFIT fault type (FaultLocation's flag).
    mutates_code = False

    def apply(self, machine):
        """Perturb the machine; returns opaque revert info."""
        raise NotImplementedError

    def revert(self, machine, info):
        """Undo whatever survives of the perturbation.

        Damage the system incurred *because* of the fault (crashes,
        corrupted requests) is intentionally not undone — repair is the
        watchdog's job, exactly as with software faults.
        """
        raise NotImplementedError

    @property
    def fault_id(self):
        return f"{self.fault_class}:{self.name}"

    def __repr__(self):
        return f"<{type(self).__name__} {self.fault_id}>"


# ----------------------------------------------------------------------
# Hardware faults
# ----------------------------------------------------------------------

class HeapMetadataCorruption(StateFault):
    """A bit-flip lands in the server process's heap bookkeeping.

    The process heap is marked corrupted; the allocator's deterministic
    blast-radius machinery then fails some of the following operations —
    the same propagation channel double-free software faults use.
    """

    name = "heap-metadata-corruption"
    fault_class = HARDWARE

    def apply(self, machine):
        ctx = machine.runtime.ctx
        if ctx is not None:
            ctx.heap.mark_corrupted("simulated memory bit-flip")
        return None

    def revert(self, machine, info):
        # Memory corruption is not revertible; a process restart (the
        # watchdog's repair) replaces the heap wholesale.
        return None


class DiskReadErrorBurst(StateFault):
    """The disk serves corrupted sectors for the duration of the slot."""

    name = "disk-read-error-burst"
    fault_class = HARDWARE

    def __init__(self, period=7):
        self.period = period

    def apply(self, machine):
        vfs = machine.kernel.vfs
        previous = vfs.read_fault_period
        vfs.read_fault_period = self.period
        return previous

    def revert(self, machine, info):
        machine.kernel.vfs.read_fault_period = info


class StaleHandleFault(StateFault):
    """A live kernel handle of the server silently goes stale.

    Models a transient fault in the handle table: the highest live handle
    is closed behind the process's back; the next use fails with
    INVALID_HANDLE.
    """

    name = "stale-handle"
    fault_class = HARDWARE

    def apply(self, machine):
        ctx = machine.runtime.ctx
        if ctx is None:
            return None
        handles = ctx.handles.handles()
        if not handles:
            return None
        ctx.handles.close(handles[-1])
        return None

    def revert(self, machine, info):
        return None  # the damage is the fault


# ----------------------------------------------------------------------
# Operator faults
# ----------------------------------------------------------------------

class MistakenProcessKill(StateFault):
    """An administrator kills the wrong process: the web server's."""

    name = "mistaken-process-kill"
    fault_class = OPERATOR

    def apply(self, machine):
        machine.runtime.kill()
        return None

    def revert(self, machine, info):
        return None  # recovery is the watchdog/administrator's job


class ConfigFileRemoval(StateFault):
    """The server's configuration file is deleted by mistake.

    Latent until the server (re)starts: a running server keeps serving,
    but any restart during or after the slot fails at startup — the
    classic operator fault that turns a small incident into an outage.
    """

    name = "config-file-removal"
    fault_class = OPERATOR

    def apply(self, machine):
        path = machine.server.config_path
        vfs = machine.kernel.vfs
        node = vfs.lookup(path)
        if node is None:
            return None
        size = node.size
        vfs.delete(path)
        return (path, size)

    def revert(self, machine, info):
        if info is None:
            return
        path, size = info
        if machine.kernel.vfs.lookup(path) is None:
            machine.kernel.vfs.create_file(path, size=size)


class LogVolumeFull(StateFault):
    """The log volume runs out of space: every log/POST write fails."""

    name = "log-volume-full"
    fault_class = OPERATOR

    def apply(self, machine):
        vfs = machine.kernel.vfs
        previous = vfs.capacity_bytes
        vfs.capacity_bytes = vfs.used_bytes  # no room for another byte
        return previous

    def revert(self, machine, info):
        machine.kernel.vfs.capacity_bytes = info


# ----------------------------------------------------------------------
# Injector and the standard extension faultload
# ----------------------------------------------------------------------

class StateFaultInjector:
    """Applies/reverts state faults with the same discipline as G-SWFIT."""

    def __init__(self, machine):
        self.machine = machine
        self._active = {}
        self.injection_count = 0

    def inject(self, fault):
        if fault.fault_id in self._active:
            raise ValueError(f"fault already active: {fault.fault_id}")
        info = fault.apply(self.machine)
        self._active[fault.fault_id] = (fault, info)
        self.injection_count += 1

    def restore(self, fault):
        entry = self._active.pop(fault.fault_id, None)
        if entry is None:
            return
        active_fault, info = entry
        active_fault.revert(self.machine, info)

    def restore_all(self):
        for fault, info in list(self._active.values()):
            fault.revert(self.machine, info)
        self._active.clear()

    @contextmanager
    def injected(self, fault):
        self.inject(fault)
        try:
            yield self
        finally:
            self.restore(fault)


def standard_extension_faultload(repetitions=4):
    """The default extended faultload: each fault, ``repetitions`` times.

    Repetition matters because state faults interact with the current
    machine state (which handle is live, how full the logs are); several
    applications at different points of the workload sample that space.
    """
    faults = []
    for _ in range(repetitions):
        faults.extend([
            HeapMetadataCorruption(),
            DiskReadErrorBurst(),
            StaleHandleFault(),
            MistakenProcessKill(),
            ConfigFileRemoval(),
            LogVolumeFull(),
        ])
    return faults


def class_faultload(os_codename, fault_class, repetitions=4):
    """The standard faultload's faults of one class, as a prepared
    :class:`~repro.faults.faultload.Faultload`: a campaign runs it as
    given, one fault per slot."""
    return Faultload(
        os_codename,
        [fault for fault in standard_extension_faultload(repetitions)
         if fault.fault_class == fault_class],
        name=f"{fault_class}-faults",
        prepared=True,
    )
