"""Unit tests for CPU-cycle accounting."""

import pytest

from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.sim.cpu import CpuMeter
from repro.sim.errors import CpuBudgetExceeded


def test_charge_accumulates():
    meter = CpuMeter(speed_hz=1000)
    meter.charge(10)
    meter.charge(5)
    assert meter.total_cycles == 15


def test_negative_charge_clamped():
    meter = CpuMeter(speed_hz=1000)
    meter.charge(-50)
    assert meter.total_cycles == 0


def test_invalid_speed_rejected():
    with pytest.raises(ValueError):
        CpuMeter(speed_hz=0)


def test_operation_bracketing_isolates_cycles():
    meter = CpuMeter(speed_hz=1000)
    meter.charge(100)  # outside any operation
    meter.begin_operation()
    meter.charge(30)
    assert meter.end_operation() == 30
    assert meter.total_cycles == 130


def test_begin_operation_resets_counter():
    meter = CpuMeter(speed_hz=1000)
    meter.begin_operation()
    meter.charge(10)
    meter.end_operation()
    meter.begin_operation()
    meter.charge(7)
    assert meter.end_operation() == 7


def test_budget_enforced_within_operation():
    meter = CpuMeter(speed_hz=1000, operation_budget=100)
    meter.charge(500)  # before the operation: not part of it
    meter.begin_operation()
    meter.charge(60)
    meter.charge(40)  # exactly the budget still fits
    with pytest.raises(CpuBudgetExceeded) as exc_info:
        meter.charge(20.9)
    assert exc_info.value.cycles == 120
    assert str(exc_info.value) == (
        "operation exceeded CPU budget (120 > 100)"
    )
    assert meter.total_cycles == 620


def test_operation_cycles_during_after_and_past_a_trip():
    meter = CpuMeter(speed_hz=1000, operation_budget=50)
    assert meter.operation_cycles == 0
    meter.charge(7)
    meter.begin_operation()
    meter.charge(20)
    assert meter.operation_cycles == 20
    assert meter.end_operation() == 20
    meter.charge(9)  # outside any operation
    assert meter.operation_cycles == 20
    meter.begin_operation()
    meter.charge(30)
    with pytest.raises(CpuBudgetExceeded):
        meter.charge(30)
    assert meter.operation_cycles == 60
    # Still inside the tripped operation: every further charge trips.
    with pytest.raises(CpuBudgetExceeded) as exc_info:
        meter.charge(1)
    assert exc_info.value.cycles == 61
    assert meter.end_operation() == 61
    meter.charge(1000)  # the budget ended with the operation
    assert meter.operation_cycles == 61
    assert meter.total_cycles == 1097


def test_budget_trips_on_dispatch_cost_before_the_api_body_runs():
    cost = NT50.base_cost("SetLastError")
    osi = OsInstance(NT50, SimKernel())
    ctx = osi.new_process(
        cpu=CpuMeter(speed_hz=1000, operation_budget=cost - 1)
    )
    ctx.cpu.begin_operation()
    with pytest.raises(CpuBudgetExceeded) as exc_info:
        ctx.api.SetLastError(5)
    assert exc_info.value.cycles == cost
    assert ctx.last_error == 0  # the body never ran
    assert ctx.api_calls == 1
    # The wrapper charges its base cost inline; its trip is the one a
    # charge of the same cycles raises.
    meter = CpuMeter(speed_hz=1000, operation_budget=cost - 1)
    meter.begin_operation()
    with pytest.raises(CpuBudgetExceeded) as charged:
        meter.charge(cost)
    assert str(exc_info.value) == str(charged.value) == (
        f"operation exceeded CPU budget ({cost} > {cost - 1})"
    )
    assert exc_info.value.cycles == charged.value.cycles
    assert ctx.cpu.total_cycles == meter.total_cycles == cost


def test_budget_not_enforced_outside_operation():
    meter = CpuMeter(speed_hz=1000, operation_budget=10)
    meter.charge(1000)  # no operation in progress: fine


def test_no_budget_means_unlimited():
    meter = CpuMeter(speed_hz=1000, operation_budget=None)
    meter.begin_operation()
    meter.charge(10**9)
    assert meter.end_operation() == 10**9


def test_cycle_time_conversions_roundtrip():
    meter = CpuMeter(speed_hz=2_000_000)
    assert meter.cycles_to_seconds(2_000_000) == 1.0
    assert meter.seconds_to_cycles(0.5) == 1_000_000


def test_fractional_charge_truncated_to_int():
    meter = CpuMeter(speed_hz=1000)
    meter.charge(10.9)
    assert meter.total_cycles == 10


def _reference_charge(total, cycles):
    """The running total after ``CpuMeter.charge(cycles)`` as it was
    computed before ints skipped ``int()``."""
    if cycles < 0:
        cycles = 0
    return total + int(cycles)


REFERENCE_CHARGES = [
    0, 1, 7, 10**15, -3, -10**9, True, False,
    2.9, -0.5, 0.5, -0.0, 10.0, 1e3, 3.999, float("-inf"),
]


def test_charge_adds_what_the_int_converting_reference_adds():
    meter = CpuMeter(speed_hz=1000)
    total = 0
    for cycles in REFERENCE_CHARGES:
        meter.charge(cycles)
        total = _reference_charge(total, cycles)
        assert meter.total_cycles == total, cycles
        assert type(meter.total_cycles) is int


@pytest.mark.parametrize("cycles", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_charge_rejects_what_the_reference_rejects(cycles):
    with pytest.raises(Exception) as reference:
        _reference_charge(0, cycles)
    meter = CpuMeter(speed_hz=1000)
    with pytest.raises(reference.type):
        meter.charge(cycles)
    assert meter.total_cycles == 0
