"""Tests for scanning (step 1) and mutant construction."""

import pytest

from repro.faults.location import FaultLocation
from repro.faults.types import FaultType, iter_fault_types
from repro.gswfit.mutator import (
    MutantError,
    build_mutant,
    mutated_source,
    resolve_function,
)
from repro.gswfit.scanner import scan_build, scan_function, scan_module
from repro.ossim.builds import NT50, NT51
from repro.ossim.modules import ntdll50


def test_scan_function_orders_by_table1_types():
    locations = scan_function(
        ntdll50.RtlAllocateHeap, display_module="Ntdll"
    )
    assert locations
    order = [loc.fault_type for loc in locations]
    table_order = {ft: i for i, ft in enumerate(iter_fault_types())}
    assert order == sorted(order, key=table_order.get)


def test_scan_function_is_deterministic():
    a = scan_function(ntdll50.NtCreateFile, display_module="Ntdll")
    b = scan_function(ntdll50.NtCreateFile, display_module="Ntdll")
    assert [l.fault_id for l in a] == [l.fault_id for l in b]


def test_scan_module_covers_exports_and_internals():
    locations = scan_module(ntdll50)
    functions = {loc.function for loc in locations}
    assert "RtlAllocateHeap" in functions
    assert "_canonical_components" in functions


def test_scan_build_totals_and_ratio():
    fl50 = scan_build(NT50)
    fl51 = scan_build(NT51)
    assert len(fl50) > 200
    assert len(fl51) > len(fl50) * 1.2  # the Table 3 scaling effect


def test_scan_build_mia_dominates():
    counts = scan_build(NT50).counts_by_type()
    assert max(counts, key=counts.get) is FaultType.MIA


def test_scan_build_rare_types():
    counts = scan_build(NT50).counts_by_type()
    ordered = sorted(counts, key=counts.get)
    assert FaultType.MVAV in ordered[:3]
    assert FaultType.WAEP in ordered[:3]


def test_every_fault_type_present_in_both_builds():
    for build in (NT50, NT51):
        counts = scan_build(build).counts_by_type()
        for fault_type in iter_fault_types():
            assert counts[fault_type] > 0, (
                f"{fault_type.value} missing on {build.codename}"
            )


def test_locations_carry_real_line_numbers():
    import inspect

    locations = scan_function(
        ntdll50.RtlAllocateHeap, display_module="Ntdll"
    )
    source_lines, first = inspect.getsourcelines(ntdll50.RtlAllocateHeap)
    last = first + len(source_lines)
    for location in locations:
        assert first <= location.lineno < last


def test_build_mutant_returns_swappable_code():
    locations = scan_function(ntdll50.RtlSizeHeap)
    function, code = build_mutant(locations[0])
    assert function is ntdll50.RtlSizeHeap
    assert code is not function.__code__
    assert code.co_argcount == function.__code__.co_argcount
    assert code.co_freevars == ()


def test_every_nt50_location_builds_a_mutant():
    """The whole faultload must be injectable (no stale sites)."""
    faultload = scan_build(NT50)
    for location in faultload:
        _function, code = build_mutant(location)
        assert code is not None


def test_mutated_source_differs_from_original():
    import inspect
    import textwrap

    locations = scan_function(ntdll50.NtClose)
    original = textwrap.dedent(inspect.getsource(ntdll50.NtClose))
    for location in locations[:5]:
        assert mutated_source(location) != original


def test_unknown_site_key_raises_mutant_error():
    location = FaultLocation(
        module="repro.ossim.modules.ntdll50",
        display_module="Ntdll",
        function="NtClose",
        fault_type=FaultType.MIA,
        site_key="99999",
    )
    with pytest.raises(MutantError):
        build_mutant(location)


def test_unknown_function_raises_mutant_error():
    location = FaultLocation(
        module="repro.ossim.modules.ntdll50",
        display_module="Ntdll",
        function="NtDoesNotExist",
        fault_type=FaultType.MIA,
        site_key="1",
    )
    with pytest.raises(MutantError):
        resolve_function(location)


def test_site_keys_unique_within_function_and_type():
    faultload = scan_build(NT50)
    seen = set()
    for location in faultload:
        key = (location.function, location.fault_type, location.site_key,
               location.module)
        assert key not in seen
        seen.add(key)
