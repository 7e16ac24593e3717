"""OLTP experiment orchestration — the harness, re-aimed at databases.

:class:`OltpMachine` assembles OS build + engine + terminals the way
:class:`~repro.harness.machine.ServerMachine` does for web servers;
:class:`OltpExperiment` runs the same baseline and slot-structured
injection phases, with one extra column in the results: the client's
integrity violations.
"""

from dataclasses import dataclass

from repro.gswfit.injector import FaultInjector
from repro.gswfit.mutator import MutantError
from repro.harness.machine import INJECTOR_CPU_FRACTION
from repro.harness.watchdog import Watchdog
from repro.oltp.engines import create_engine
from repro.oltp.workload import OltpClient, OltpClientConfig
from repro.ossim.builds import get_build
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.sim.kernel import Simulator
from repro.webservers.runtime import ServerRuntime

__all__ = ["OltpExperiment", "OltpIteration", "OltpMachine"]


class OltpMachine:
    """One engine/OS combination plus its terminal farm."""

    def __init__(self, config, iteration=0):
        self.config = config
        self.sim = Simulator(seed=config.iteration_seed(iteration))
        self.kernel = SimKernel(time_source=lambda: self.sim.now)
        self.build = get_build(config.os_codename)
        self.os_instance = OsInstance(self.build, self.kernel)
        self.engine = create_engine(config.server_name)
        self.runtime = ServerRuntime(
            self.engine, self.os_instance, self.sim
        )
        client_config = OltpClientConfig(
            terminals=config.client.connections,
            accounts=self.engine.accounts,
        )
        self.client = OltpClient(
            self.sim,
            self.runtime.deliver,
            config=client_config,
            rng=self.sim.rng_for("oltp", iteration),
        )

    def boot(self):
        self.kernel.vfs.mkdir(f"/db/{self.engine.name}", parents=True)
        return self.runtime.start()

    def run_for(self, seconds):
        self.sim.run_until(self.sim.now + seconds)


@dataclass
class OltpIteration:
    """One faultload pass over one engine."""

    iteration: int
    metrics: object  # OltpMetrics
    mis: int
    kns: int
    kcp: int
    faults_injected: int

    @property
    def admf(self):
        return self.mis + self.kns + self.kcp


class OltpExperiment:
    """Baseline and injection runs for one engine/OS pair.

    Reuses :class:`~repro.harness.config.ExperimentConfig`;
    ``config.server_name`` names the engine ('walnut' or 'breezy').
    """

    def __init__(self, config):
        self.config = config
        self.build = get_build(config.os_codename)

    def prepared_faultload(self, faultload=None):
        from repro.gswfit.scanner import scan_build

        if faultload is not None and getattr(faultload, "prepared", False):
            return faultload
        if faultload is None:
            faultload = scan_build(self.build)
        if self.config.fault_sample is not None:
            faultload = faultload.sample(
                self.config.fault_sample, seed=self.config.seed
            ).interleave_types()
        faultload.prepared = True
        return faultload

    def domain_tuned_faultload(self, engines=("walnut", "breezy"),
                               profile_seconds=20.0):
        """The methodology's fine-tuning, applied to the OLTP domain.

        The paper: "the resulting faultload is specific for a given OS
        and an intended domain".  The web-server faultload does not fit
        databases (their API footprint is different), so the profiling
        phase is re-run with the *database engines* as the benchmark
        targets and the faultload restricted to their common function
        set.
        """
        from repro.gswfit.scanner import scan_build
        from repro.profiling.finetune import FineTuner
        from repro.profiling.tracer import ApiCallTracer

        tracers = {}
        for engine_name in engines:
            config = self.config.with_target(server_name=engine_name)
            machine = OltpMachine(config, iteration=0)
            tracer = ApiCallTracer(label=engine_name)
            machine.os_instance.attach_tracer(tracer)
            if not machine.boot():
                raise RuntimeError(f"{engine_name} failed to start")
            machine.client.start()
            machine.run_for(
                config.rules.warmup_seconds + profile_seconds
            )
            machine.client.pause()
            tracers[engine_name] = tracer
        tuner = FineTuner(self.build)
        tuner.analyze(tracers)
        return tuner.tune(scan_build(self.build))

    def _boot(self, iteration):
        machine = OltpMachine(self.config, iteration=iteration)
        if not machine.boot():
            raise RuntimeError(
                f"engine {self.config.server_name} failed to start"
            )
        return machine

    def run_baseline(self, iteration=0):
        rules = self.config.rules
        machine = self._boot(iteration)
        machine.client.start()
        machine.run_for(rules.warmup_seconds + rules.rampup_seconds)
        start = machine.sim.now
        machine.run_for(rules.baseline_seconds)
        machine.client.pause()
        machine.run_for(rules.rampdown_seconds)
        return machine.client.compute(
            [(start, start + rules.baseline_seconds)]
        )

    def run_injection(self, faultload=None, iteration=1):
        faultload = self.prepared_faultload(faultload)
        config = self.config
        rules = config.rules
        machine = self._boot(iteration)
        machine.runtime.cpu_scale = 1.0 - INJECTOR_CPU_FRACTION
        injector = FaultInjector(os_instances=[machine.os_instance])
        watchdog = Watchdog(machine.sim, machine.runtime)
        machine.client.start()
        machine.run_for(rules.warmup_seconds + rules.rampup_seconds)
        watchdog.start()
        windows = []
        injected = 0
        try:
            for location in faultload:
                slot_start = machine.sim.now
                try:
                    injector.inject(location)
                    injected += 1
                except MutantError:
                    continue
                machine.sim.run_until(slot_start + rules.slot_seconds)
                injector.restore(location)
                windows.append(
                    (slot_start, slot_start + rules.slot_seconds)
                )
                machine.client.pause()
                machine.run_for(rules.slot_gap_seconds)
                # The fault is gone: re-arm an exhausted restart budget
                # so an engine the fault kept killing can come back.
                watchdog.check_now(retry_exhausted=True)
                machine.client.resume()
        finally:
            injector.restore_all()
        machine.client.pause()
        machine.run_for(rules.rampdown_seconds)
        watchdog.stop()
        return OltpIteration(
            iteration=iteration,
            metrics=machine.client.compute(windows),
            mis=watchdog.mis,
            kns=watchdog.kns,
            kcp=watchdog.kcp,
            faults_injected=injected,
        )
