"""Edge cases for the state-fault injector and campaign."""

from dataclasses import replace

import pytest

from repro.extensions.statefaults import (
    ConfigFileRemoval,
    DiskReadErrorBurst,
    LogVolumeFull,
    StateFault,
    StateFaultInjector,
)
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import WebServerExperiment
from repro.harness.machine import ServerMachine
from tests.harness.configs import tiny_config


@pytest.fixture
def machine():
    machine = ServerMachine(ExperimentConfig.smoke())
    assert machine.boot()
    return machine


def test_restore_without_inject_is_noop(machine):
    injector = StateFaultInjector(machine)
    injector.restore(LogVolumeFull())  # never injected: fine
    assert machine.kernel.vfs.capacity_bytes > 0


def test_base_fault_requires_overrides(machine):
    fault = StateFault()
    with pytest.raises(NotImplementedError):
        fault.apply(machine)
    with pytest.raises(NotImplementedError):
        fault.revert(machine, None)


def test_fault_ids_are_classed():
    assert ConfigFileRemoval().fault_id == (
        "operator:config-file-removal"
    )
    assert DiskReadErrorBurst().fault_id == (
        "hardware:disk-read-error-burst"
    )


def test_config_removal_on_missing_file_is_harmless(machine):
    machine.kernel.vfs.delete("/etc/apache.conf")
    injector = StateFaultInjector(machine)
    fault = ConfigFileRemoval()
    injector.inject(fault)      # nothing to remove
    injector.restore(fault)     # nothing to restore
    assert machine.kernel.vfs.lookup("/etc/apache.conf") is None


def test_same_fault_type_cannot_nest(machine):
    """Two instances of one fault type share a fault id: the injector
    refuses to stack them (reverting would be ambiguous)."""
    injector = StateFaultInjector(machine)
    injector.inject(DiskReadErrorBurst(period=5))
    with pytest.raises(ValueError):
        injector.inject(DiskReadErrorBurst(period=3))
    injector.restore(DiskReadErrorBurst())
    assert machine.kernel.vfs.read_fault_period == 0


def test_different_fault_types_nest_and_revert(machine):
    injector = StateFaultInjector(machine)
    vfs = machine.kernel.vfs
    capacity = vfs.capacity_bytes
    injector.inject(DiskReadErrorBurst(period=5))
    injector.inject(LogVolumeFull())
    assert vfs.read_fault_period == 5
    assert vfs.capacity_bytes == vfs.used_bytes
    injector.restore_all()
    assert vfs.read_fault_period == 0
    assert vfs.capacity_bytes == capacity


def test_campaign_with_single_class():
    """A slot walk over state faults alone: each slot injects, and none
    plants a probe, so activation reads as not tracked while the slot
    gaps are audited as usual."""
    config = ExperimentConfig.smoke()
    run = WebServerExperiment(config).run_slots(
        [LogVolumeFull(), DiskReadErrorBurst()], iteration=1
    )
    assert run.faults_injected == 2
    assert not run.activation_enabled
    assert run.activations == []
    assert run.integrity_enabled
    assert run.audits_performed >= 2
    assert run.compute_metrics(config.connections).total_ops > 0


def test_injection_count_tracked(machine):
    injector = StateFaultInjector(machine)
    with injector.injected(LogVolumeFull()):
        pass
    with injector.injected(DiskReadErrorBurst()):
        pass
    assert injector.injection_count == 2


class _ConfigRemovalAndKill(StateFault):
    """Deletes the server's config file and kills the server: every
    restart fails until the revert puts the file back."""

    name = "config-removal-and-kill"
    fault_class = "operator"

    def apply(self, machine):
        info = ConfigFileRemoval().apply(machine)
        machine.runtime.kill()
        return info

    def revert(self, machine, info):
        ConfigFileRemoval().revert(machine, info)


def test_slot_gap_rearms_an_exhausted_restart_budget():
    """A state fault that uses up the watchdog's restart budget must not
    leave the server dead for the slots after it: once the fault is
    reverted, the slot gap grants a fresh attempt."""
    config = tiny_config()
    # An 8 s slot gives the 1 s watchdog poll all of its restart
    # attempts, so the budget runs out inside the slot.
    config.rules = replace(config.rules, slot_seconds=8.0)
    run = WebServerExperiment(config).run_slots([
        _ConfigRemovalAndKill(),
        DiskReadErrorBurst(period=10**9),
        DiskReadErrorBurst(period=10**9),
    ], iteration=1)
    # No verified reboot brings a fresh server: only the re-arm can.
    assert run.reboots == []
    assert run.epochs_booted + run.epochs_restored == 1
    kinds = [incident["kind"] for incident in run.incidents]
    assert "RESTART_EXHAUSTED" in kinds
    metrics = run.compute_metrics(config.connections)
    # The first slot's server stays dead; the last two serve.
    assert metrics.er_percent < 50.0
