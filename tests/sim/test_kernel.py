"""Unit tests for the simulator kernel."""

import itertools
import random

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import PURGE_MIN_ENTRIES, EventQueue
from repro.sim.kernel import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SchedulingError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_fires_due_events_and_pins_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.schedule(7.0, fired.append, 7)
    sim.run_until(3.0)
    assert fired == [1, 2]
    assert sim.now == 3.0
    sim.run_until(10.0)
    assert fired == [1, 2, 7]


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SchedulingError):
        sim.run_until(2.0)


def test_run_until_inclusive_of_boundary_events():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "edge")
    sim.run_until(3.0)
    assert fired == ["edge"]


def test_events_scheduled_during_execution_run_in_order():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.5, second)

    def second():
        fired.append("second")

    sim.schedule(1.0, first)
    sim.run_until(1.5)
    assert fired == ["first", "second"]
    assert sim.now == 1.5


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "no")
    sim.cancel(event)
    sim.run_until(2.0)
    assert fired == []
    assert len(sim.events) == 0


def test_events_fired_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run_until(4.0)
    assert sim.events_fired == 5


def test_rng_for_is_deterministic_per_label():
    sim_a = Simulator(seed=7)
    sim_b = Simulator(seed=7)
    assert (
        sim_a.rng_for("client").random()
        == sim_b.rng_for("client").random()
    )
    assert (
        sim_a.rng_for("client").random()
        != sim_a.rng_for("server").random()
    )


def test_deterministic_execution_order():
    """Two identical simulations fire identical event sequences."""

    def build(seed):
        sim = Simulator(seed=seed)
        trace = []
        rng = sim.rng_for("load")
        for i in range(50):
            sim.schedule(rng.uniform(0, 10), trace.append, i)
        sim.run_until(10.0)
        return trace

    assert build(3) == build(3)
    assert build(3) != build(4)


def test_inlined_queue_matches_event_queue():
    """``schedule`` and ``run_until`` run ``EventQueue.push`` and
    ``pop`` inlined: the same events fire in the same order, with the
    same live count and the same purges, as through the queue's own
    methods."""
    rng = random.Random(2004)
    sim = Simulator()
    reference = EventQueue()
    fired, expected = [], []
    pending = {}
    purges = 0
    keys = itertools.count()
    for _ in range(4 * PURGE_MIN_ENTRIES):
        for key in itertools.islice(keys, rng.randint(1, 4)):
            # Few distinct times, so many ties fall back to sequence.
            delay = rng.randint(0, 40) / 4
            pending[key] = (
                sim.schedule(delay, fired.append, key),
                reference.push(sim.now + delay, expected.append, (key,)),
            )
        for key in rng.sample(sorted(pending),
                              min(len(pending), rng.randint(0, 4))):
            size = len(sim.events._heap)
            event, twin = pending.pop(key)
            sim.cancel(event)
            reference.cancel(twin)
            purges += len(sim.events._heap) < size
        if rng.random() < 0.2:
            until = sim.now + rng.randint(0, 4) / 8
            before = len(fired)
            sim.run_until(until)
            while (event := reference.pop(until)) is not None:
                event.callback(*event.args)
            for key in fired[before:]:
                del pending[key]
        assert fired == expected
        assert len(sim.events) == len(reference) == len(pending)
        assert len(sim.events._heap) == len(reference._heap)
    assert purges > 0
    assert sim.events_fired == len(fired) > 0
