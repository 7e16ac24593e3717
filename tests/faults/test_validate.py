"""Tests for faultload validation."""

import pytest

from repro.faults.faultload import Faultload
from repro.faults.location import FaultLocation
from repro.faults.types import FaultType
from repro.faults.validate import validate_faultload
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50


@pytest.fixture(scope="module")
def scanned():
    return scan_build(NT50)


def test_scanned_faultload_is_valid(scanned):
    report = validate_faultload(scanned.sample(40, seed=1))
    assert report.ok, str(report)
    assert report.checked == 40
    assert report.errors() == []


def test_empty_faultload_invalid():
    report = validate_faultload(Faultload("nt50", []))
    assert not report.ok
    assert report.errors()[0].code == "empty"


def test_duplicate_locations_flagged(scanned):
    location = scanned[0]
    report = validate_faultload(Faultload("nt50", [location, location]))
    assert not report.ok
    assert any(f.code == "duplicate" for f in report.findings)


def test_unresolvable_location_flagged():
    bogus = FaultLocation(
        module="repro.ossim.modules.ntdll50",
        display_module="Ntdll",
        function="NtClose",
        fault_type=FaultType.MIA,
        site_key="424242",
    )
    report = validate_faultload(Faultload("nt50", [bogus]))
    assert not report.ok
    assert report.errors()[0].code == "unresolvable"


def test_single_type_warning(scanned):
    only_mia = scanned.restrict_to_types([FaultType.MIA]).sample(5)
    report = validate_faultload(only_mia)
    assert report.ok  # warnings don't invalidate
    assert any(f.code == "single-type" for f in report.warnings())


def test_inverted_mix_warning(scanned):
    wrong_heavy = scanned.restrict_to_types(
        [FaultType.WVAV, FaultType.WLEC, FaultType.MVI]
    )
    # Keep one MVI and all the wrong-construct ones.
    locations = [loc for loc in wrong_heavy
                 if loc.fault_type is not FaultType.MVI]
    locations += [loc for loc in wrong_heavy
                  if loc.fault_type is FaultType.MVI][:1]
    report = validate_faultload(Faultload("nt50", locations))
    assert any(f.code == "mix-inverted" for f in report.warnings())


def test_report_renders(scanned):
    report = validate_faultload(scanned.sample(5))
    text = str(report)
    assert "OK" in text or "INVALID" in text
