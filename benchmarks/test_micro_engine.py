"""Microbenchmarks of the core engine (feasibility, Section 4).

The paper reports the cost of the methodology's steps: faultload
generation under 5 minutes, low injector overhead, injection itself "a
very simple and low intrusive task".  These microbenchmarks put numbers
on the reproduction's equivalents and back the feasibility claims.
"""

from repro.gswfit.injector import FaultInjector
from repro.gswfit.mutator import build_mutant
from repro.gswfit.scanner import scan_build, scan_function
from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.ossim.modules import ntdll50
from repro.sim.kernel import Simulator


def test_scan_full_build(benchmark):
    """Faultload generation for one OS build (paper: < 5 minutes)."""
    faultload = benchmark(scan_build, NT50)
    assert len(faultload) > 200


def test_scan_single_function(benchmark):
    locations = benchmark(
        scan_function, ntdll50.NtCreateFile, None, "Ntdll"
    )
    assert locations


def test_build_one_mutant(benchmark):
    location = scan_function(ntdll50.RtlAllocateHeap)[0]
    _function, code = benchmark(build_mutant, location)
    assert code is not None


def test_inject_restore_cycle(benchmark):
    """Step 2 cost: one hot swap plus its restoration."""
    location = scan_function(ntdll50.RtlAllocateHeap)[0]
    injector = FaultInjector()

    def cycle():
        injector.inject(location)
        injector.restore(location)

    benchmark(cycle)


def test_os_call_throughput(benchmark):
    """A full open/read/close against the simulated OS."""
    kernel = SimKernel()
    kernel.vfs.mkdir("/d", parents=True)
    kernel.vfs.create_file("/d/f", size=4096)
    ctx = OsInstance(NT50, kernel).new_process()

    def cycle():
        handle = ctx.api.CreateFileW("/d/f", "r", 3)
        ctx.api.ReadFile(handle, 4096)
        ctx.api.CloseHandle(handle)

    benchmark(cycle)


def test_event_loop_throughput(benchmark):
    """Raw discrete-event dispatch rate."""

    def run():
        sim = Simulator()
        count = 1000

        def tick():
            nonlocal count
            count -= 1
            if count > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run_until(2.0)
        return sim.events_fired

    fired = benchmark(run)
    assert fired == 1000


def test_simulated_second_of_workload(benchmark):
    """Host cost of one simulated second of a loaded server machine."""
    from repro.harness.config import ExperimentConfig
    from repro.harness.machine import ServerMachine

    config = ExperimentConfig.smoke()
    machine = ServerMachine(config)
    machine.boot()
    machine.client.start()
    machine.run_for(5.0)  # warm

    def one_second():
        machine.run_for(1.0)

    benchmark.pedantic(one_second, rounds=10, iterations=1)
    assert machine.client.total_ops() > 0
