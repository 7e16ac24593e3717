"""API dispatch: how applications call the (possibly mutated) OS.

:class:`OsInstance` ties an :class:`~repro.ossim.builds.OsBuild` to one
machine's :class:`~repro.ossim.context.SimKernel`; :class:`ApiTable` is the
per-process view of the build's exports, the moral equivalent of the import
address table a native process resolves against ``ntdll``/``kernel32``.

Each call through the table:

1. is recorded by the attached tracer, if any (this is the probe the
   profiling phase of the methodology uses — analogous to the API tracing
   tool of the paper's Section 3.3);
2. charges the build's fixed dispatch cost to the process CPU meter;
3. invokes the live module-level function — whose ``__code__`` the G-SWFIT
   injector may have swapped for a mutant.

The tracer check is resolved at *wrapper build time*, not per call: a
table builds untraced wrappers (no tracer reference anywhere in the
closure) until a tracer is attached, and :meth:`OsInstance.attach_tracer`
rebuilds the wrappers of every live table when the tracer changes.
Attaching or detaching is rare — once per profiling run — while the
wrappers execute millions of times, so the steady state carries zero
tracing overhead.  Built wrappers are also published into the table's
instance dictionary, so repeat ``ctx.api.NtWriteFile`` lookups bypass
``__getattr__`` entirely.

Failure semantics: simulated machine conditions (``SimSegfault``,
``SimBlockedForever``, ``CpuBudgetExceeded``) always propagate.  Any *other*
Python exception escaping OS code is a bug of ours when the OS is pristine
(so it propagates loudly), but when a fault is currently injected it is the
expected behaviour of broken native code and is converted to a simulated
access violation.  ``fault_mode`` is read live — but only on the
exceptional path, so it costs nothing per successful call.
"""

import weakref

from repro.sim.errors import (
    CpuBudgetExceeded,
    SimBlockedForever,
    SimSegfault,
)

__all__ = ["ApiTable", "OsInstance"]

_PASSTHROUGH = (SimSegfault, SimBlockedForever, CpuBudgetExceeded)


class OsInstance:
    """One OS build booted on one machine kernel."""

    def __init__(self, build, kernel):
        self.build = build
        self.kernel = kernel
        self.tracer = None
        # Activation tracker, when fault-activation telemetry is on; the
        # injector reads this to decide probed vs plain mutants.  Probes
        # live inside mutant code, not in the dispatch wrappers, so
        # attaching never rebuilds tables.
        self.activation = None
        # Set by the fault injector while at least one mutation is applied.
        self.fault_mode = False
        # Live API tables bound to this instance; weak so a dead process
        # doesn't keep its table (and the table its ctx) alive.
        self._tables = weakref.WeakSet()
        kernel.boot_count += 1

    def attach_tracer(self, tracer):
        """Attach an API call tracer (None detaches).

        Every live table's wrappers are rebuilt for the new tracer state,
        so processes created *before* the attach are traced too — and
        stop paying for tracing the moment it is detached.
        """
        self.tracer = tracer
        # Snapshot first: a GC-triggered WeakSet removal mid-iteration
        # raises "set changed size during iteration".
        for table in list(self._tables):
            table._rebind()

    def attach_activation(self, tracker):
        """Attach a fault-activation tracker (None detaches)."""
        self.activation = tracker

    def new_process(self, cpu=None, name="process"):
        """Create a process with its API table already bound."""
        ctx = self.kernel.new_process(cpu=cpu, name=name)
        ctx.api = ApiTable(self, ctx)
        return ctx

    def __getstate__(self):
        """Pickle for machine snapshots: tables re-register on load."""
        state = self.__dict__.copy()
        del state["_tables"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # A table that unpickled before us (the graph is cyclic) may have
        # already planted the set via ApiTable.__setstate__.
        if "_tables" not in self.__dict__:
            self._tables = weakref.WeakSet()

    def __repr__(self):
        return f"OsInstance({self.build.codename}, fault_mode={self.fault_mode})"


class ApiTable:
    """Per-process resolved view of an OS build's exports.

    Attribute access returns a callable wrapper; wrappers are cached (in
    the instance dictionary, so only the first access runs
    ``__getattr__``), and they call the live module-level function, so an
    injected ``__code__`` swap is visible immediately even to processes
    created before the injection.
    """

    def __init__(self, os_instance, ctx):
        self.__dict__["os"] = os_instance
        self.__dict__["ctx"] = ctx
        self.__dict__["_wrappers"] = {}
        os_instance._tables.add(self)

    def __getattr__(self, name):
        # Only reached for names not yet published into __dict__ (and
        # never for real attributes/methods, which resolve normally).
        wrapper = self._make_wrapper(name)
        self._wrappers[name] = wrapper
        self.__dict__[name] = wrapper
        return wrapper

    def _rebind(self):
        """Rebuild every built wrapper for the current tracer state."""
        for name in self._wrappers:
            wrapper = self._make_wrapper(name)
            self._wrappers[name] = wrapper
            self.__dict__[name] = wrapper

    def __getstate__(self):
        """Pickle for machine snapshots: drop the closure cache."""
        return {"os": self.os, "ctx": self.ctx}

    def __setstate__(self, state):
        self.__dict__["os"] = state["os"]
        self.__dict__["ctx"] = state["ctx"]
        self.__dict__["_wrappers"] = {}
        # The OsInstance may still be mid-unpickle (its __setstate__ not
        # yet run); plant the table set for it if so — its __setstate__
        # keeps whatever is already there.
        os_instance = state["os"]
        if "_tables" not in os_instance.__dict__:
            os_instance.__dict__["_tables"] = weakref.WeakSet()
        os_instance._tables.add(self)

    def export_names(self):
        return self.os.build.export_names()

    def _make_wrapper(self, name):
        entry = self.os.build.exports().get(name)
        if entry is None:
            raise AttributeError(
                f"{self.os.build.display_name} has no export {name!r}"
            )
        module_display, function = entry
        base_cost = self.os.build.base_cost(name)
        os_instance = self.os
        ctx = self.ctx
        charge = ctx.charge
        tracer = os_instance.tracer

        # Positional only: a ``**kwargs`` parameter builds a dict on
        # every call.  A keyword argument raises TypeError at its call
        # site; test_dispatch.py checks that no caller passes one.
        if tracer is None:
            def call(*args):
                ctx.api_calls += 1
                charge(base_cost)
                try:
                    return function(ctx, *args)
                except _PASSTHROUGH:
                    raise
                except Exception as exc:
                    if os_instance.fault_mode:
                        raise SimSegfault(
                            f"fault in {module_display}!{name}: "
                            f"{type(exc).__name__}: {exc}",
                            cause=exc,
                        ) from exc
                    raise
        else:
            record = tracer.record

            def call(*args):
                record(module_display, name)
                ctx.api_calls += 1
                charge(base_cost)
                try:
                    return function(ctx, *args)
                except _PASSTHROUGH:
                    raise
                except Exception as exc:
                    if os_instance.fault_mode:
                        raise SimSegfault(
                            f"fault in {module_display}!{name}: "
                            f"{type(exc).__name__}: {exc}",
                            cause=exc,
                        ) from exc
                    raise

        call.__name__ = name
        call.__qualname__ = f"ApiTable.{name}"
        return call

    def __repr__(self):
        return (
            f"ApiTable(build={self.os.build.codename}, "
            f"pid={self.ctx.pid})"
        )
