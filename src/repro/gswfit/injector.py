"""Step 2 of G-SWFIT: runtime injection into the live target.

The injector swaps a target function's ``__code__`` for the mutant's and
back, without restarting anything — the running web server's next OS call
simply executes the faulty code.  Two guarantees are enforced:

* **FIT boundary**: faults may only be injected into modules on the FIT
  allowlist (``FIT_PREFIXES``).  Mutating the benchmark target itself
  would invalidate the experiment (the paper's BT/FIT separation), so
  such attempts raise :class:`FitBoundaryError` instead of proceeding.
* **Restorability**: the original code object of every mutated function is
  retained; :meth:`FaultInjector.restore_all` returns the OS to pristine
  state and is idempotent.

Mutants come precompiled from the
:mod:`~repro.gswfit.cache` mutant cache: a campaign compiles each fault
location once, up-front, before it forks any worker process, and every
subsequent inject of the same location is a pair of dictionary lookups
plus the code swap.

``profile_mode`` performs every step of an injection except the final code
swap — the mechanism behind the paper's intrusiveness measurements
(Table 4).
"""

from contextlib import contextmanager

from repro.gswfit import cache as _cache
from repro.gswfit.activation import ACTIVATION_HOOK
from repro.gswfit.mutator import resolve_module

__all__ = ["FaultInjector", "FitBoundaryError", "check_fit_boundary"]

# Module-path prefixes that constitute the fault injection target.
FIT_PREFIXES = ("repro.ossim.modules",)


class FitBoundaryError(Exception):
    """Attempt to inject a fault outside the fault injection target."""


def check_fit_boundary(module_name):
    """Raise :class:`FitBoundaryError` unless ``module_name`` is FIT.

    Shared by every injector flavour: the BT/FIT separation is the same
    contract whether faults arrive as code swaps or intercepted returns.
    """
    for prefix in FIT_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return
    raise FitBoundaryError(
        f"refusing to inject into {module_name!r}: outside the "
        f"fault injection target {FIT_PREFIXES!r} — injecting "
        f"into the benchmark target would invalidate the experiment"
    )


class FaultInjector:
    """Applies and removes mutations on live FIT functions.

    Parameters
    ----------
    os_instances:
        :class:`~repro.ossim.dispatch.OsInstance` objects whose
        ``fault_mode`` flag should track whether any fault is active.
    profile_mode:
        When True, injections do all the work (mutant compilation
        included) but never swap code — used to measure intrusiveness.
    activation_tracker:
        Optional :class:`~repro.gswfit.activation.ActivationTracker`.
        When attached, mutants are compiled with the activation probe and
        the tracker's ``record`` method is published under
        ``__gswfit_activation__`` in the FIT module for exactly the
        lifetime of each injection, so the probe resolves iff its fault
        is applied.  Without a tracker the injected bytecode is identical
        to the untracked harness.
    """

    def __init__(self, os_instances=(), profile_mode=False,
                 activation_tracker=None):
        self.os_instances = list(os_instances)
        self.profile_mode = profile_mode
        self.activation_tracker = activation_tracker
        self._originals = {}
        self._active = {}
        # (module, function) -> the fault_id currently holding that
        # function.  At most one fault per function at a time: mutants
        # are always built from pristine source, so a second swap would
        # trample the first mutant and a later restore would resurrect
        # the *other* fault's code while the bookkeeping says pristine.
        self._function_faults = {}
        # module name -> number of active probed faults in that module;
        # the activation hook lives in the module dict while > 0.
        self._hooked_modules = {}
        self.injection_count = 0

    # ------------------------------------------------------------------
    # Guards
    # ------------------------------------------------------------------
    def _sync_fault_mode(self):
        active = bool(self._active)
        for os_instance in self.os_instances:
            os_instance.fault_mode = active

    # ------------------------------------------------------------------
    # Injection / restoration
    # ------------------------------------------------------------------
    @property
    def active_locations(self):
        """Fault locations currently applied."""
        return list(self._active.values())

    def _install_hook(self, module_name):
        count = self._hooked_modules.get(module_name, 0)
        if count == 0:
            module = resolve_module(module_name)
            setattr(module, ACTIVATION_HOOK, self.activation_tracker.record)
        self._hooked_modules[module_name] = count + 1

    def _remove_hook(self, module_name):
        count = self._hooked_modules.get(module_name, 0)
        if count <= 1:
            self._hooked_modules.pop(module_name, None)
            module = resolve_module(module_name)
            if hasattr(module, ACTIVATION_HOOK):
                delattr(module, ACTIVATION_HOOK)
        else:
            self._hooked_modules[module_name] = count - 1

    def inject(self, location):
        """Apply ``location``'s mutation to the running target.

        One fault per function at a time: injecting into a function
        that already carries an active fault raises :class:`ValueError`
        (before any counter moves), because the new mutant — built from
        pristine source — would silently erase the active one and leave
        restore bookkeeping pointing at dead state.
        """
        check_fit_boundary(location.module)
        if location.fault_id in self._active:
            raise ValueError(f"fault already active: {location.fault_id}")
        key = (location.module, location.function)
        if not self.profile_mode:
            holder = self._function_faults.get(key)
            if holder is not None:
                raise ValueError(
                    f"cannot inject {location.fault_id}: function "
                    f"{location.function!r} in {location.module!r} "
                    f"already carries active fault {holder!r} — one "
                    f"fault per function at a time"
                )
        probed = self.activation_tracker is not None
        function, mutant_code = _cache.build_mutant_cached(
            location, probed=probed
        )
        self.injection_count += 1
        if self.profile_mode:
            return
        if probed:
            # The hook must be resolvable before the probed code can run.
            self._install_hook(location.module)
            self.activation_tracker.begin(location.fault_id)
        self._originals[key] = function.__code__
        function.__code__ = mutant_code
        self._active[location.fault_id] = location
        self._function_faults[key] = location.fault_id
        self._sync_fault_mode()

    def restore(self, location):
        """Remove ``location``'s mutation (no-op in profile mode)."""
        if self.profile_mode:
            return
        if location.fault_id not in self._active:
            return
        del self._active[location.fault_id]
        key = (location.module, location.function)
        del self._function_faults[key]
        function = getattr(resolve_module(key[0]), key[1])
        function.__code__ = self._originals.pop(key)
        if self.activation_tracker is not None:
            # Only after the swap-back: the probe must never fire without
            # its hook in place.
            self._remove_hook(location.module)
        self._sync_fault_mode()

    def restore_all(self):
        """Return every mutated function to its original code."""
        for key, original in list(self._originals.items()):
            function = getattr(resolve_module(key[0]), key[1])
            function.__code__ = original
        for module_name in list(self._hooked_modules):
            module = resolve_module(module_name)
            if hasattr(module, ACTIVATION_HOOK):
                delattr(module, ACTIVATION_HOOK)
        self._hooked_modules.clear()
        self._originals.clear()
        self._active.clear()
        self._function_faults.clear()
        self._sync_fault_mode()

    @contextmanager
    def injected(self, location):
        """Context manager: inject on entry, restore on exit."""
        self.inject(location)
        try:
            yield self
        finally:
            self.restore(location)

    def __repr__(self):
        mode = "profile" if self.profile_mode else "live"
        return (
            f"FaultInjector(mode={mode}, active={len(self._active)}, "
            f"injected={self.injection_count})"
        )
