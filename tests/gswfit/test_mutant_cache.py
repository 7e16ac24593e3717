"""Tests for the mutant precompilation cache (tier-1).

The load-bearing properties: a fault location is compiled exactly once
per campaign no matter how many slots inject it, worker processes share
one compilation pass through the disk tier, and the cache never changes
what the injector actually swaps in.
"""

import ast
import inspect
import sys
import types
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.faults.faultload import Faultload
from repro.gswfit import cache as cache_module
from repro.gswfit import mutator
from repro.gswfit.cache import (
    MUTANT_CACHE_STATS,
    build_mutant_cached,
    clear_mutant_cache,
    mutant_cache_path,
    mutant_fingerprint,
    warm_mutant_cache,
)
from repro.gswfit.dsl.compile import MutationOperator
from repro.gswfit.injector import FaultInjector
from repro.gswfit.mutator import build_mutant
from repro.gswfit.operators import base
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_mutant_cache()
    yield
    clear_mutant_cache()


@pytest.fixture(scope="module")
def faultload():
    return scan_build(NT50)


def test_cached_mutant_equals_direct_build(faultload):
    location = faultload.locations[0]
    function, direct = build_mutant(location)
    cached_function, cached = build_mutant_cached(location)
    assert cached_function is function
    assert cached.co_code == direct.co_code
    assert cached.co_filename == direct.co_filename
    assert cached.co_argcount == direct.co_argcount


def test_three_slot_campaign_compiles_once(faultload, monkeypatch):
    """The compile-counter probe: inject/restore three slots over the
    same location and observe exactly one mutant compilation."""
    calls = []
    real = cache_module.build_mutant

    def counting(location, probed=False, sites=None):
        calls.append(location.fault_id)
        return real(location, probed=probed, sites=sites)

    monkeypatch.setattr(cache_module, "build_mutant", counting)
    location = faultload.locations[0]
    injector = FaultInjector()
    for _ in range(3):
        injector.inject(location)
        injector.restore(location)
    assert calls == [location.fault_id]
    assert MUTANT_CACHE_STATS.memory_hits == 2


def test_fingerprint_separates_fault_types_on_one_function(faultload):
    by_function = {}
    for location in faultload:
        by_function.setdefault(
            (location.module, location.function), []
        ).append(location)
    pair = next(
        locations for locations in by_function.values()
        if len({loc.fault_type for loc in locations}) >= 2
    )
    a, b = pair[0], next(
        loc for loc in pair if loc.fault_type != pair[0].fault_type
    )
    assert mutant_fingerprint(a) == mutant_fingerprint(a)
    assert mutant_fingerprint(a) != mutant_fingerprint(b)


def test_warm_mutant_cache_compiles_each_location_once(faultload):
    small = Faultload(
        faultload.os_codename, faultload.locations[:6], name="small"
    )
    first = warm_mutant_cache(small)
    assert first == {"slots": 6, "compiled": 6, "cached": 0, "failed": 0}
    second = warm_mutant_cache(small)
    assert second == {"slots": 6, "compiled": 0, "cached": 6, "failed": 0}


def _code_shape(code):
    """What a mutant's behaviour and its tracebacks rest on, nested code
    objects included: bytecode, names, constants, first line, line
    table, exception table (3.11+) and positions (3.11+)."""
    return (
        code.co_code,
        code.co_names,
        code.co_varnames,
        code.co_argcount,
        code.co_filename,
        code.co_name,
        code.co_firstlineno,
        code.co_linetable,
        getattr(code, "co_exceptiontable", None),
        tuple(code.co_positions()) if hasattr(code, "co_positions")
        else None,
        tuple(
            _code_shape(const) if isinstance(const, types.CodeType)
            else (type(const), repr(const))
            for const in code.co_consts
        ),
    )


@pytest.mark.parametrize("probed", [False, True])
def test_grouped_build_equals_a_build_alone(probed):
    """A mutant built inside a ``warm_mutant_cache`` group, after the
    rest of its function's mutants, is the code its location compiles to
    on its own.  Covers every (function, fault type) pair of both
    builds; about 2 s per variant on a 2-CPU host."""
    pairs = {}
    for build in (NT50, NT51):
        faultload = scan_build(build)
        warm_mutant_cache(faultload, probed=probed)
        for location in faultload:
            # The last location of a pair saw every earlier edit of its
            # group.
            pairs[(location.module, location.function,
                   location.fault_type)] = location
    grouped = {
        pair: build_mutant_cached(location, probed=probed)[1]
        for pair, location in pairs.items()
    }
    assert len(grouped) == 428
    for pair, location in pairs.items():
        clear_mutant_cache()
        _function, alone = build_mutant_cached(location, probed=probed)
        assert _code_shape(alone) == _code_shape(grouped[pair]), pair


def test_cold_warm_up_reads_each_function_source_once(monkeypatch):
    """A cold build fingerprints a function's source and builds its
    image: one read of its module serves both, for every function of
    that module.  Both builds have 83 target functions in 4 FIT modules,
    so a cold warm-up of both reads each module once and calls
    ``inspect.getsource`` on no function (83 calls when each function's
    source was read alone)."""
    faultloads = [scan_build(NT50), scan_build(NT51)]
    fit_modules = {
        module.__name__ for build in (NT50, NT51)
        for _display_name, module in build.modules
    }
    clear_mutant_cache()
    reads = []
    module_reads = []
    real, real_lines = inspect.getsource, inspect.getsourcelines

    def counting(obj):
        if inspect.isfunction(obj):
            reads.append((obj.__module__, obj.__name__))
        return real(obj)

    def counting_lines(obj):
        if inspect.ismodule(obj) and obj.__name__ in fit_modules:
            module_reads.append(obj.__name__)
        return real_lines(obj)

    monkeypatch.setattr(inspect, "getsource", counting)
    monkeypatch.setattr(inspect, "getsourcelines", counting_lines)
    for faultload in faultloads:
        warm_mutant_cache(faultload, probed=True)
    functions = {(location.module, location.function)
                 for faultload in faultloads for location in faultload}
    assert len(functions) == 83
    assert len(fit_modules) == 4
    assert reads == []
    assert sorted(module_reads) == sorted(fit_modules)
    # The fingerprints hashed the text inspect.getsource returns.
    monkeypatch.undo()
    for (module, name), (_code, source) in mutator.source_memo.items():
        assert source == inspect.getsource(
            getattr(sys.modules[module], name)
        ), name
    assert len(mutator.source_memo) == 83


def test_warm_mutant_cache_parses_each_function_once_in_any_order(
        faultload, monkeypatch):
    """An interleaved faultload scatters each function's locations; the
    warm-up still builds one image per function, compiles each location
    once, and counts what the scan order counts.  A cleared cache
    compiles everything again."""
    imaged = []
    built = []
    real_image, real_build = mutator.FunctionImage, cache_module.build_mutant

    def counting_image(function, *args, **kwargs):
        imaged.append((function.__module__, function.__name__))
        return real_image(function, *args, **kwargs)

    def counting_build(location, probed=False, sites=None):
        built.append(location.fault_id)
        return real_build(location, probed=probed, sites=sites)

    monkeypatch.setattr(mutator, "FunctionImage", counting_image)
    monkeypatch.setattr(cache_module, "build_mutant", counting_build)
    interleaved = faultload.interleave_types()
    assert [loc.fault_id for loc in interleaved] != [
        loc.fault_id for loc in faultload
    ]
    functions = {(loc.module, loc.function) for loc in faultload}
    fault_ids = sorted(loc.fault_id for loc in faultload)
    everything = {"slots": len(faultload), "compiled": len(faultload),
                  "cached": 0, "failed": 0}

    scan_order = warm_mutant_cache(faultload, probed=True)
    clear_mutant_cache()
    imaged.clear()
    built.clear()
    assert warm_mutant_cache(interleaved, probed=True) == scan_order
    assert scan_order == everything
    assert sorted(built) == fault_ids
    assert sorted(imaged) == sorted(functions)
    assert warm_mutant_cache(interleaved, probed=True) == {
        "slots": len(faultload), "compiled": 0,
        "cached": len(faultload), "failed": 0,
    }
    assert sorted(built) == fault_ids
    assert sorted(imaged) == sorted(functions)

    clear_mutant_cache()
    built.clear()
    assert warm_mutant_cache(interleaved, probed=True) == everything
    assert sorted(built) == fault_ids


def test_cold_warm_up_renders_no_description_and_walks_no_tree(
        monkeypatch):
    """Relocating a site for a mutant renders no description (and so
    unparses nothing), and a splice edits the block of the site's parent
    copy instead of walking the mutant's tree for it."""
    faultloads = [scan_build(NT50), scan_build(NT51)]
    clear_mutant_cache()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("called during a warm-up")

    monkeypatch.setattr(MutationOperator, "_describe", forbidden)
    monkeypatch.setattr(base, "_iter_statement_lists", forbidden)
    monkeypatch.setattr(ast, "unparse", forbidden)
    stats = [
        warm_mutant_cache(faultload, probed=True)
        for faultload in faultloads
    ]
    assert [(s["compiled"], s["failed"]) for s in stats] == [
        (394, 0), (610, 0)
    ]


def test_disk_tier_survives_memory_clear(faultload, tmp_path):
    location = faultload.locations[0]
    build_mutant_cached(location, cache_dir=tmp_path)
    path = mutant_cache_path(
        tmp_path, mutant_fingerprint(location), location.fault_id
    )
    assert path.exists()
    clear_mutant_cache()
    build_mutant_cached(location, cache_dir=tmp_path)
    assert MUTANT_CACHE_STATS.as_dict() == {
        "compiles": 0, "memory_hits": 0, "disk_hits": 1
    }


def test_corrupt_disk_entry_recompiles(faultload, tmp_path):
    location = faultload.locations[0]
    build_mutant_cached(location, cache_dir=tmp_path)
    path = mutant_cache_path(
        tmp_path, mutant_fingerprint(location), location.fault_id
    )
    path.write_bytes(b"not a marshalled code object")
    clear_mutant_cache()
    function, code = build_mutant_cached(location, cache_dir=tmp_path)
    assert MUTANT_CACHE_STATS.compiles == 1
    assert code.co_argcount == function.__code__.co_argcount


def _worker_compile_stats(location, cache_dir):
    # Runs in a worker process.  Drop any state inherited through fork so
    # the only way to avoid compiling is the on-disk tier.
    clear_mutant_cache()
    build_mutant_cached(location, cache_dir=cache_dir)
    return MUTANT_CACHE_STATS.as_dict()


def test_worker_processes_share_one_compilation_pass(faultload, tmp_path):
    """A parent warm-up means fresh worker processes compile nothing."""
    sample = faultload.locations[:4]
    for location in sample:
        build_mutant_cached(location, cache_dir=tmp_path)
    assert MUTANT_CACHE_STATS.compiles == len(sample)
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            _worker_compile_stats, sample, [tmp_path] * len(sample)
        ))
    for stats in results:
        assert stats["compiles"] == 0
        assert stats["disk_hits"] == 1
