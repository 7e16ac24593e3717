"""API dispatch: how applications call the (possibly mutated) OS.

:class:`OsInstance` ties an :class:`~repro.ossim.builds.OsBuild` to one
machine's :class:`~repro.ossim.context.SimKernel`; :class:`ApiTable` is the
per-process view of the build's exports, the moral equivalent of the import
address table a native process resolves against ``ntdll``/``kernel32``.

Each call through the table:

1. is recorded by the attached tracer, if any (this is the probe the
   profiling phase of the methodology uses — analogous to the API tracing
   tool of the paper's Section 3.3);
2. is counted in ``ctx.api_calls`` and charges the build's fixed dispatch
   cost to the process CPU meter, inline;
3. invokes the live module-level function — whose ``__code__`` the G-SWFIT
   injector may have swapped for a mutant.

Each wrapper is shaped like its export's signature, so a correct call
reaches the export as one fixed-arity call; ``_WRAPPER_SOURCE`` says how.

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

import functools
import weakref

from repro.sim.errors import (
    CpuBudgetExceeded,
    SimBlockedForever,
    SimSegfault,
)

__all__ = ["ApiTable", "OsInstance"]

_PASSTHROUGH = (SimSegfault, SimBlockedForever, CpuBudgetExceeded)

# The default of every required wrapper parameter.  A call that leaves
# one out is counted and charged like any other, then reaches the export
# with what it passed, so the export's own TypeError is what a pristine
# OS raises and what fault mode turns into an access violation.
_MISSING = object()

# One wrapper code object per signature shape (required and optional
# parameters after ``ctx``) and tracing state, compiled once.  The
# parameters are positional-only, so the success path passes them to the
# export as one fixed-arity call instead of re-packing ``*args``; a
# wrapper's own ``__defaults__`` are the export's, with ``_MISSING`` for
# each required one.  ``*extra`` catches a call with too many arguments.
# The base cost is charged inline: the same sum and limit check as
# ``CpuMeter.charge`` of a non-negative int, and the same trip.
_WRAPPER_SOURCE = """
def bind(ctx, meter, base_cost, function, os_instance, module_display,
         name{record_param}):
    def call({params}*extra):
        {record_call}ctx.api_calls += 1
        total = meter.total_cycles + base_cost
        meter.total_cycles = total
        if total > meter.limit:
            meter.exceeded(total)
        try:
            if {wrong_arity}:
                return function(ctx, *_passed(({args}), extra))
            return function(ctx, {args})
        except _PASSTHROUGH:
            raise
        except Exception as exc:
            if os_instance.fault_mode:
                raise SimSegfault(
                    f"fault in {{module_display}}!{{name}}: "
                    f"{{type(exc).__name__}}: {{exc}}",
                    cause=exc,
                ) from exc
            raise
    return call
"""


@functools.cache
def _binder(required, optional, traced):
    """The closure factory of one wrapper shape, compiled once."""
    names = [f"a{index}" for index in range(required + optional)]
    source = _WRAPPER_SOURCE.format(
        record_param=", record" if traced else "",
        record_call="record(module_display, name)\n        " if traced
        else "",
        params="".join(f"{name}, " for name in names)
        + ("/, " if names else ""),
        wrong_arity=(
            f"a{required - 1} is _MISSING or extra" if required else "extra"
        ),
        args="".join(f"{name}, " for name in names),
    )
    namespace = {}
    shape = (required, optional, traced)
    exec(compile(source, f"<api wrapper {shape}>", "exec"), globals(),
         namespace)
    return namespace["bind"]


def _passed(params, extra):
    """The arguments a wrong-arity call passed: every parameter and the
    surplus after a call with too many, else the ones before the first
    missing."""
    if extra:
        return params + extra
    missing = next(i for i, value in enumerate(params) if value is _MISSING)
    return params[:missing]


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
        defaults = function.__defaults__ or ()
        required = function.__code__.co_argcount - 1 - len(defaults)
        tracer = self.os.tracer
        bind = _binder(required, len(defaults), tracer is not None)
        bound = (self.ctx, self.ctx.cpu, self.os.build.base_cost(name),
                 function, self.os, module_display, name)
        if tracer is None:
            call = bind(*bound)
        else:
            call = bind(*bound, tracer.record)
        if required or defaults:
            call.__defaults__ = (_MISSING,) * required + defaults
        call.__name__ = name
        call.__qualname__ = f"ApiTable.{name}"
        return call

    def __repr__(self):
        return (
            f"ApiTable(build={self.os.build.codename}, "
            f"pid={self.ctx.pid})"
        )
