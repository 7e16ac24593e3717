"""Unit tests for the event queue."""

import random

from repro.sim.events import PURGE_MIN_ENTRIES, Event, EventQueue


def test_push_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, fired.append, ("c",))
    queue.push(1.0, fired.append, ("a",))
    queue.push(2.0, fired.append, ("b",))
    order = []
    while queue:
        event = queue.pop()
        order.append(event.time)
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_push_order():
    queue = EventQueue()
    first = queue.push(5.0, lambda: None)
    second = queue.push(5.0, lambda: None)
    assert queue.pop() is first
    assert queue.pop() is second


def test_len_counts_live_events_only():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.cancel(event)
    assert len(queue) == 1


def test_cancelled_event_is_skipped_by_pop():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    keeper = queue.push(2.0, lambda: None)
    queue.cancel(event)
    assert queue.pop() is keeper


def test_cancel_twice_is_safe():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0
    assert queue.pop() is None


def test_pop_limit_skips_cancelled_head_and_stops_past_limit():
    queue = EventQueue()
    head = queue.push(1.0, lambda: None)
    keeper = queue.push(4.0, lambda: None)
    queue.cancel(head)
    assert queue.pop(limit=3.0) is None
    assert len(queue) == 1  # the later event stays queued
    assert queue.pop(limit=4.0) is keeper  # the limit is inclusive
    assert queue.pop(limit=10.0) is None


def _order(event):
    return event.time, event.sequence


def test_purge_keeps_live_events_in_time_sequence_order():
    rng = random.Random(2004)
    queue = EventQueue()
    live = {}
    purges = 0
    for _ in range(4 * PURGE_MIN_ENTRIES):
        for _ in range(rng.randint(1, 4)):
            # Few distinct times, so many ties fall back to sequence.
            event = queue.push(rng.randint(0, 40) / 4, lambda: None)
            live[event.sequence] = event
        for event in rng.sample(list(live.values()),
                                min(len(live), rng.randint(0, 4))):
            size = len(queue._heap)
            queue.cancel(event)
            del live[event.sequence]
            purges += len(queue._heap) < size
        if rng.random() < 0.2:
            limit = rng.randint(0, 40) / 4
            due = min(live.values(), key=_order, default=None)
            if due is not None and due.time > limit:
                due = None
            assert queue.pop(limit=limit) is due
            if due is not None:
                del live[due.sequence]
        assert len(queue) == len(live)
    assert purges > 0
    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == sorted(live.values(), key=_order)
    assert queue.pop() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_clear_empties_queue():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert len(queue) == 0
    assert not queue


def test_event_repr_mentions_state():
    event = Event(1.5, 7, lambda: None, ())
    assert "1.5" in repr(event)
    event.cancel()
    assert "cancelled" in repr(event)


def test_bool_reflects_liveness():
    queue = EventQueue()
    assert not queue
    queue.push(1.0, lambda: None)
    assert queue


def test_many_events_heap_property():
    queue = EventQueue()
    times = [7.0, 1.0, 9.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 0.5]
    for t in times:
        queue.push(t, lambda: None)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(times)
