"""Tests for the scan cache (tier-1: runs in the default suite)."""

import pytest

from repro.faults.faultload import Faultload
from repro.gswfit import cache as cache_module
from repro.gswfit.cache import (
    cache_key,
    clear_scan_cache,
    library_fingerprint,
    scan_build_cached,
)
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_scan_cache()
    yield
    clear_scan_cache()


def ids(faultload):
    return [loc.fault_id for loc in faultload]


def test_cached_scan_equals_direct_scan():
    assert ids(scan_build_cached(NT50)) == ids(scan_build(NT50))


def test_memory_cache_scans_once(monkeypatch):
    calls = []
    real = cache_module.scan_build

    def counting(build):
        calls.append(build.codename)
        return real(build)

    monkeypatch.setattr(cache_module, "scan_build", counting)
    first = scan_build_cached(NT50)
    second = scan_build_cached(NT50)
    assert calls == ["nt50"]
    assert ids(first) == ids(second)
    # Distinct wrapper objects: deriving/flagging one cannot poison the
    # cache for the next caller.
    assert first is not second
    first.prepared = True
    assert not scan_build_cached(NT50).prepared


def test_cache_keys_separate_builds_and_scopes():
    assert cache_key(NT50) != cache_key(NT51)
    assert ids(scan_build_cached(NT50)) != ids(scan_build_cached(NT51))


def test_fingerprint_is_stable():
    fingerprint = library_fingerprint(NT50)
    assert fingerprint == library_fingerprint(NT50)
    clear_scan_cache()
    assert library_fingerprint(NT50) == fingerprint


def test_disk_roundtrip_preserves_faultload_fidelity(tmp_path):
    """A faultload written by ``repro scan --output`` or an export is
    only worth reading back if save/load is lossless."""
    original = scan_build(NT50)
    path = tmp_path / "fl.json"
    original.save(path)
    restored = Faultload.load(path)
    assert restored.os_codename == original.os_codename
    assert restored.name == original.name
    assert ids(restored) == ids(original)
    assert [loc.to_dict() for loc in restored] == [
        loc.to_dict() for loc in original
    ]


@pytest.mark.parametrize("module_name", [
    "dsl.predicates", "dsl.mutations", "dsl.compile", "operators.base",
    "astutils", "scanner", "mutator", "activation",
])
def test_vocabulary_source_change_rekeys_scans_and_mutants(
        monkeypatch, module_name):
    """Editing any module that shapes a scan or a mutant re-keys both
    caches though no spec changed."""
    import importlib
    import inspect

    from repro.gswfit.cache import clear_mutant_cache, mutant_fingerprint
    from repro.gswfit.dsl import compile as dsl_compile

    module = importlib.import_module(f"repro.gswfit.{module_name}")
    location = scan_build(NT50).locations[0]
    before = (library_fingerprint(NT50), mutant_fingerprint(location))
    real = inspect.getsource

    def edited(obj):
        source = real(obj)
        return source + "# edited\n" if obj is module else source

    monkeypatch.setattr(inspect, "getsource", edited)
    dsl_compile._vocabulary_digest.cache_clear()
    clear_scan_cache()
    clear_mutant_cache()
    try:
        after = (library_fingerprint(NT50), mutant_fingerprint(location))
    finally:
        monkeypatch.undo()
        dsl_compile._vocabulary_digest.cache_clear()
        clear_mutant_cache()
    assert after[0] != before[0]
    assert after[1] != before[1]
