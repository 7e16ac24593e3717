"""Tests for the hardware/operator fault-model extension."""

import pytest

from repro.extensions.statefaults import (
    ConfigFileRemoval,
    DiskReadErrorBurst,
    HeapMetadataCorruption,
    LogVolumeFull,
    MistakenProcessKill,
    StaleHandleFault,
    StateFaultInjector,
    class_faultload,
    standard_extension_faultload,
)
from repro.harness.campaign import ParallelCampaign
from repro.harness.config import ExperimentConfig
from repro.harness.machine import ServerMachine
from repro.webservers.http import HttpRequest
from repro.webservers.runtime import RuntimeState


@pytest.fixture
def machine():
    config = ExperimentConfig.smoke()
    machine = ServerMachine(config)
    assert machine.boot()
    return machine


def _serve(machine, path="/dir00000/class1_2"):
    outcome = []
    machine.runtime.deliver(HttpRequest("GET", path), outcome.append)
    machine.run_for(2.0)
    return outcome[0] if outcome else None


def test_heap_corruption_damages_later_operations(machine):
    injector = StateFaultInjector(machine)
    with injector.injected(HeapMetadataCorruption()):
        crashed_or_errored = False
        for _ in range(20):
            response = _serve(machine)
            if response is None or not response.ok:
                crashed_or_errored = True
                break
    assert crashed_or_errored


def test_disk_read_burst_corrupts_some_content(machine):
    injector = StateFaultInjector(machine)
    fault = DiskReadErrorBurst(period=3)
    entry = machine.fileset.entry("/dir00000/class1_2")
    from repro.ossim.vfs import SimBuffer

    expected = SimBuffer.for_content(entry.content_id, 0, entry.size)
    with injector.injected(fault):
        buffers = [
            _serve(machine).buffer for _ in range(6)
        ]
    corrupted = [b for b in buffers if b is not None and b != expected]
    assert corrupted, "some reads must return corrupted sectors"
    # Reverted: reads are clean again.
    assert machine.kernel.vfs.read_fault_period == 0
    assert _serve(machine).buffer == expected


def test_mistaken_kill_leaves_server_dead(machine):
    injector = StateFaultInjector(machine)
    injector.inject(MistakenProcessKill())
    assert machine.runtime.state is RuntimeState.DEAD
    assert _serve(machine) is None  # refused
    injector.restore(MistakenProcessKill())
    # Recovery is the administrator's job, not the fault's revert.
    assert machine.runtime.state is RuntimeState.DEAD
    assert machine.runtime.restart()
    assert _serve(machine).ok


def test_config_removal_is_latent_until_restart(machine):
    injector = StateFaultInjector(machine)
    fault = ConfigFileRemoval()
    injector.inject(fault)
    # Still serving: the fault is latent.
    assert _serve(machine).ok
    # A restart during the fault fails at startup.
    assert not machine.runtime.restart()
    injector.restore(fault)
    assert machine.kernel.vfs.lookup("/etc/apache.conf") is not None
    assert machine.runtime.restart()


def test_log_volume_full_breaks_posts(machine):
    injector = StateFaultInjector(machine)
    with injector.injected(LogVolumeFull()):
        outcome = []
        machine.runtime.deliver(
            HttpRequest("POST", "/postlog/form", body_size=200),
            outcome.append,
        )
        machine.run_for(2.0)
        assert outcome[0] is not None
        assert not outcome[0].ok
    # Reverted: posts work again.
    outcome = []
    machine.runtime.deliver(
        HttpRequest("POST", "/postlog/form", body_size=200),
        outcome.append,
    )
    machine.run_for(2.0)
    assert outcome[0].ok


def test_stale_handle_fault_applies_without_crash(machine):
    injector = StateFaultInjector(machine)
    _serve(machine)  # populate some handles
    with injector.injected(StaleHandleFault()):
        # The server may or may not stumble depending on which handle
        # went stale; the machine must remain driveable either way.
        for _ in range(5):
            _serve(machine)


def test_double_inject_rejected(machine):
    injector = StateFaultInjector(machine)
    fault = LogVolumeFull()
    injector.inject(fault)
    with pytest.raises(ValueError):
        injector.inject(fault)
    injector.restore(fault)


def test_restore_all(machine):
    injector = StateFaultInjector(machine)
    injector.inject(LogVolumeFull())
    injector.inject(DiskReadErrorBurst())
    injector.restore_all()
    vfs = machine.kernel.vfs
    assert vfs.read_fault_period == 0
    assert vfs.capacity_bytes > vfs.used_bytes


def test_standard_faultload_composition():
    faults = standard_extension_faultload(repetitions=2)
    assert len(faults) == 12
    classes = {fault.fault_class for fault in faults}
    assert classes == {"hardware", "operator"}


def test_extended_campaign_reports_per_class():
    """Each fault class is a campaign of its own on the one slot walk,
    reporting the software faultload's measures."""
    config = ExperimentConfig.smoke()
    rows = {}
    for fault_class in ("hardware", "operator"):
        result = ParallelCampaign(config, workers=1).run(
            faultload=class_faultload(
                config.os_codename, fault_class, repetitions=1
            ),
            include_baseline=False, include_profile_mode=False,
        )
        rows[fault_class] = result.iterations[0]
    for row in rows.values():
        assert row.faults_injected == 3
        assert row.metrics.total_ops > 0
    # A mistaken kill guarantees at least one MIS in the operator class.
    assert rows["operator"].mis >= 1
