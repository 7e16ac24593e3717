"""Mixed-fault-class campaigns (the "full benchmark" sketch).

Runs the same slot structure as the software-fault experiment, but over
a faultload of state faults, and reports the familiar measures per fault
class, so software, hardware and operator faults can be compared on one
server/OS pair — the combination the paper names as the road to a full
dependability benchmark.
"""

from dataclasses import dataclass, field

from repro.extensions.statefaults import (
    StateFaultInjector,
    standard_extension_faultload,
)
from repro.harness.machine import ServerMachine
from repro.harness.watchdog import Watchdog
from repro.specweb.rules import CONFORMANCE_SLOTS

__all__ = ["ExtendedFaultCampaign", "FaultClassResult"]


@dataclass
class FaultClassResult:
    """Measures for one fault class within a mixed campaign."""

    fault_class: str
    faults_injected: int
    metrics: object  # SpecWebMetrics
    mis: int
    kns: int
    kcp: int

    @property
    def admf(self):
        return self.mis + self.kns + self.kcp


class ExtendedFaultCampaign:
    """One pass of a state-faultload over one server/OS machine."""

    def __init__(self, config, faults=None):
        self.config = config
        self.faults = (
            list(faults) if faults is not None
            else standard_extension_faultload()
        )

    def run(self, iteration=1):
        """Run every fault for one slot; returns per-class results."""
        config = self.config
        rules = config.rules
        machine = ServerMachine(config, iteration=iteration)
        if not machine.boot():
            raise RuntimeError("server failed to start pristine")
        injector = StateFaultInjector(machine)
        watchdog = Watchdog(machine.sim, machine.runtime)
        machine.client.start()
        machine.run_for(rules.warmup_seconds + rules.rampup_seconds)
        watchdog.start()

        windows_by_class = {}
        counters_before = {}
        counts = {}
        for fault in self.faults:
            fault_class = fault.fault_class
            counts[fault_class] = counts.get(fault_class, 0) + 1
            slot_start = machine.sim.now
            before = (watchdog.mis, watchdog.kns, watchdog.kcp)
            injector.inject(fault)
            machine.sim.run_until(slot_start + rules.slot_seconds)
            injector.restore(fault)
            machine.client.pause()
            machine.run_for(rules.slot_gap_seconds)
            # The fault is reverted: grant an exhausted restart budget a
            # fresh attempt, as the software campaign's slot gap does.
            watchdog.check_now(retry_exhausted=True)
            machine.client.resume()
            after = (watchdog.mis, watchdog.kns, watchdog.kcp)
            windows_by_class.setdefault(fault_class, []).append(
                (slot_start, slot_start + rules.slot_seconds)
            )
            deltas = counters_before.setdefault(
                fault_class, [0, 0, 0]
            )
            for index in range(3):
                deltas[index] += after[index] - before[index]

        machine.client.pause()
        machine.run_for(rules.rampdown_seconds)
        watchdog.stop()

        results = {}
        for fault_class, windows in windows_by_class.items():
            metrics = machine.client.collector.compute(
                windows, conformance_group=CONFORMANCE_SLOTS
            )
            mis, kns, kcp = counters_before[fault_class]
            results[fault_class] = FaultClassResult(
                fault_class=fault_class,
                faults_injected=counts[fault_class],
                metrics=metrics,
                mis=mis, kns=kns, kcp=kcp,
            )
        return results
