"""Scan and mutant caching (G-SWFIT step 1 + step 2 memoization).

Both expensive halves of the pipeline are pure functions of source text:

* **Scans** — the faultload an OS build produces depends only on the
  build's module sources and the mutation-operator library (every scan
  covers each module's exports and internal helpers).
* **Mutants** — the code object a fault location compiles to depends
  only on the target function's source and the operator implementing
  the location's fault type.

A campaign therefore never needs more than one scan per build and one
compilation per fault location — yet the harness used to redo both on
every call/slot.  This module memoizes each in process, keyed by the
fingerprints below, so repeat scans/injections inside one run are free;
because a campaign's workers fork from a warmed parent, they are free
across its workers too.

The scan cache key is ``(build codename, library fingerprint)``; the
mutant cache key is ``(source fingerprint, fault_id, probed)`` where the
source fingerprint hashes the target function's current source plus the
operator's implementation and ``probed`` distinguishes
activation-instrumented variants.  Fingerprints hash the source they
depend on, so editing it invalidates the cache automatically — stale
entries are simply never looked up again (their key no longer matches).
"""

import hashlib
import inspect

from repro.faults.faultload import Faultload
from repro.gswfit.astutils import ModuleSource
from repro.gswfit.mutator import (
    FunctionSites,
    MutantError,
    build_mutant,
    function_source,
    resolve_function,
    resolve_module,
    source_memo,
)
from repro.gswfit.operators import (
    operator_for,
    operator_library,
    registry_generation,
)
from repro.gswfit.scanner import scan_build

__all__ = [
    "MUTANT_CACHE_STATS",
    "build_mutant_cached",
    "cache_key",
    "clear_mutant_cache",
    "clear_scan_cache",
    "library_fingerprint",
    "mutant_fingerprint",
    "scan_build_cached",
    "warm_mutant_cache",
]

_memory_cache = {}
_fingerprint_cache = {}


def library_fingerprint(build):
    """Hash of everything a scan's output depends on, for one build.

    Covers the behaviour of the full operator library (each operator
    fingerprints its canonical spec JSON plus the source of the DSL
    vocabulary that interprets it and of the AST, scanner, mutator and
    activation modules) and the source of the build's FIT modules (the
    code being scanned).  The memo key includes the
    operator registry generation, so installing or replacing an
    operator invalidates it.
    """
    memo_key = (build.codename, registry_generation())
    cached = _fingerprint_cache.get(memo_key)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    library = operator_library()
    for fault_type in sorted(library, key=lambda ft: ft.value):
        hasher.update(fault_type.value.encode("utf-8"))
        hasher.update(
            library[fault_type].fingerprint_payload().encode("utf-8")
        )
    for display_name, module in build.modules:
        hasher.update(display_name.encode("utf-8"))
        hasher.update(inspect.getsource(module).encode("utf-8"))
    fingerprint = hasher.hexdigest()
    _fingerprint_cache[memo_key] = fingerprint
    return fingerprint


def cache_key(build):
    """The tuple a cached scan is filed under."""
    return (build.codename, library_fingerprint(build))


def scan_build_cached(build):
    """:func:`~repro.gswfit.scanner.scan_build` behind the cache.

    Returns a fresh :class:`Faultload` wrapper on every call (the
    location records are shared — they are frozen), so callers may
    derive/flag the result without poisoning the cache.
    """
    key = cache_key(build)
    faultload = _memory_cache.get(key)
    if faultload is None:
        faultload = scan_build(build)
        _memory_cache[key] = faultload
    return Faultload(
        faultload.os_codename, faultload.locations, name=faultload.name
    )


def clear_scan_cache():
    """Drop the in-process scan and library-fingerprint memos."""
    _memory_cache.clear()
    _fingerprint_cache.clear()


# --------------------------------------------------------------------------
# Mutant precompilation cache (step 2)
# --------------------------------------------------------------------------

_mutant_memory = {}
# (module, function) -> (code object the fingerprint was taken from, fp).
# Validity is checked by identity against the function's *current*
# ``__code__``: a code swap back to the original (restore) keeps the memo
# valid, a source edit / redefinition produces a new code object and the
# fingerprint is recomputed.  This keeps the warm inject path free of
# ``inspect.getsource`` + hashing.
_source_fp_memo = {}
_operator_fp_memo = {}


class _MutantCacheStats:
    """Counters for the mutant cache (reset with :func:`clear_mutant_cache`)."""

    __slots__ = ("compiles", "memory_hits")

    def __init__(self):
        self.reset()

    def reset(self):
        self.compiles = 0
        self.memory_hits = 0


MUTANT_CACHE_STATS = _MutantCacheStats()


def _operator_fingerprint(fault_type):
    # Memo key includes the registry generation: an installed spec
    # replacing this fault type's operator must change the fingerprint.
    memo_key = (fault_type, registry_generation())
    cached = _operator_fp_memo.get(memo_key)
    if cached is None:
        operator = operator_for(fault_type)
        cached = hashlib.sha256(
            operator.fingerprint_payload().encode("utf-8")
        ).hexdigest()
        _operator_fp_memo[memo_key] = cached
    return cached


def mutant_fingerprint(location, function=None):
    """Hash of everything ``location``'s mutant code depends on.

    Covers the target function's current source and the implementation of
    the operator for the location's fault type.  The per-function source
    hash is memoized against the function's ``__code__`` identity, so the
    warm path never re-reads source files.
    """
    if function is None:
        function = resolve_function(location)
    key = (location.module, location.function)
    memo = _source_fp_memo.get(key)
    if memo is not None and memo[0] is function.__code__:
        source_fp = memo[1]
    else:
        source_fp = hashlib.sha256(
            function_source(location, function).encode("utf-8")
        ).hexdigest()
        _source_fp_memo[key] = (function.__code__, source_fp)
    hasher = hashlib.sha256(source_fp.encode("ascii"))
    hasher.update(_operator_fingerprint(location.fault_type).encode("ascii"))
    return hasher.hexdigest()


def build_mutant_cached(location, probed=False, sites=None):
    """:func:`~repro.gswfit.mutator.build_mutant` behind the cache.

    Returns the same ``(original_function, mutant_code)`` pair.  The code
    object is compiled at most once per ``(source fingerprint, fault_id,
    probed)`` in a process, and a campaign's forked workers inherit the
    memo its warm-up filled.  Probed and unprobed variants are distinct
    cache entries: they compile to different bytecode.  ``sites`` (a
    :class:`~repro.gswfit.mutator.FunctionSites`) is handed to the
    build on a miss.
    """
    probed = bool(probed)
    function = resolve_function(location)
    key = (mutant_fingerprint(location, function), location.fault_id, probed)
    code = _mutant_memory.get(key)
    if code is not None:
        MUTANT_CACHE_STATS.memory_hits += 1
        return function, code
    function, code = build_mutant(location, probed=probed, sites=sites)
    MUTANT_CACHE_STATS.compiles += 1
    _mutant_memory[key] = code
    return function, code


def _unread_definition(module_source, location):
    """``(source, fdef)`` of ``location``'s function when its source is
    not in ``source_memo`` yet, which then holds ``source``; else None."""
    key = (location.module, location.function)
    function = getattr(module_source.module, location.function, None)
    code = getattr(function, "__code__", None)
    entry = source_memo.get(key)
    if code is None or (entry is not None and entry[0] is code):
        return None
    definition = module_source.definition(function)
    if definition is not None:
        source_memo[key] = (code, definition[0])
    return definition


def warm_mutant_cache(faultload, probed=False):
    """Batch-compile every location of ``faultload`` into the cache.

    A campaign calls this once after sampling, *before* forking worker
    processes, which inherit the warm in-process memo outright.
    Locations that cannot be compiled are counted, not raised — the
    injection slot will surface the error in context.  ``probed`` must match what the slots
    will request (activation tracking on → probed mutants).

    Locations are built one module at a time, and within it one
    function group at a time, each in the order it first appears.  A
    group shares one image of its function and one site table per fault
    type (:class:`~repro.gswfit.mutator.FunctionSites`), dropped before
    the next group starts.  A function whose source has not been read
    yet is parsed from its module's text, read once per module
    (:class:`~repro.gswfit.astutils.ModuleSource`): its slice of that
    text fills ``source_memo``, so its fingerprint hashes what
    :func:`inspect.getsource` would return, and its ``FunctionDef``
    becomes the group's image.  So the pass reads each module once,
    parses each function once, holds one function's tree at a time and
    keeps none past the call.
    """
    modules = {}
    for location in faultload:
        modules.setdefault(location.module, {}).setdefault(
            location.function, []
        ).append(location)
    compiled = cached = failed = 0
    for module_name, groups in modules.items():
        module_source = ModuleSource(resolve_module(module_name))
        for locations in groups.values():
            sites = FunctionSites(
                locations[0], _unread_definition(module_source, locations[0])
            )
            for location in locations:
                before = MUTANT_CACHE_STATS.compiles
                try:
                    build_mutant_cached(
                        location, probed=probed, sites=sites
                    )
                except MutantError:
                    failed += 1
                    continue
                if MUTANT_CACHE_STATS.compiles > before:
                    compiled += 1
                else:
                    cached += 1
    return {"slots": len(faultload), "compiled": compiled,
            "cached": cached, "failed": failed}


def clear_mutant_cache():
    """Drop the in-process mutant memo and reset the stats counters."""
    _mutant_memory.clear()
    _source_fp_memo.clear()
    source_memo.clear()
    _operator_fp_memo.clear()
    MUTANT_CACHE_STATS.reset()
