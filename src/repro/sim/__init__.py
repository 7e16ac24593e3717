"""Discrete-event simulation kernel.

This package provides the deterministic substrate every other subsystem runs
on: a simulated clock and event queue (:mod:`repro.sim.kernel`), seeded
random-number streams (:mod:`repro.sim.rng`), and CPU-cycle accounting used
to turn executed OS code into simulated service time (:mod:`repro.sim.cpu`).
Network transfers need no model of their own: the SPECWeb client times each
one from the link latency and its connection's rate.

This substrate sits on every simulated request's path, so it is kept lean
on calls: ``Simulator.schedule`` and ``Simulator.run_until`` push and pop
the event heap in their own frames, and each OS API call adds its base cost
to its process's ``CpuMeter`` inline (:mod:`repro.ossim.dispatch`) rather
than through ``CpuMeter.charge``.

The paper's experiments ran for roughly 24 wall-clock hours on a two-machine
testbed; running on a simulated clock makes the same experiment repeatable
to the bit and executable in seconds, which is exactly the *repeatability*
property the faultload methodology is required to have.
"""

from repro.sim.errors import (
    CpuBudgetExceeded,
    SimBlockedForever,
    SimSegfault,
    SimulationError,
)
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.cpu import CpuMeter
from repro.sim.rng import SeededRng, derive_seed

__all__ = [
    "CpuBudgetExceeded",
    "CpuMeter",
    "Event",
    "EventQueue",
    "SeededRng",
    "SimBlockedForever",
    "SimSegfault",
    "SimulationError",
    "Simulator",
    "derive_seed",
]
