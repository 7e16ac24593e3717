"""The discrete-event simulator.

:class:`Simulator` owns the clock and the event queue.  Entities (client
connections, server processes, the fault injector, the watchdog) interact by
scheduling callbacks; nothing in the system reads the wall clock.
"""

from heapq import heappop, heappush

from repro.sim.errors import SchedulingError
from repro.sim.events import Event, EventQueue
from repro.sim.rng import SeededRng

__all__ = ["Simulator"]


class Simulator:
    """Deterministic event-driven simulator.

    Parameters
    ----------
    seed:
        Base seed for every random stream derived via :meth:`rng_for`.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.now = 0.0
        self.events = EventQueue()
        self.rng = SeededRng(seed)
        self._events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay:.6f}s in the past")
        # EventQueue.push inlined: a campaign schedules about half a
        # million events, and each is one call here instead of two.
        events = self.events
        time = self.now + delay
        sequence = events._sequence
        events._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heappush(events._heap, (time, sequence, event))
        events._live += 1
        return event

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time:.6f} (now is {self.now:.6f})"
            )
        return self.events.push(time, callback, args)

    def cancel(self, event):
        """Cancel a previously scheduled event (safe to call twice)."""
        self.events.cancel(event)

    def rng_for(self, *labels):
        """Return an independent random stream derived from the base seed."""
        return self.rng.substream(*labels)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, time):
        """Run events up to and including simulated ``time``.

        The clock is left at exactly ``time`` even if no event fires there,
        so back-to-back ``run_until`` calls partition the timeline cleanly.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot run backwards to t={time:.6f} (now {self.now:.6f})"
            )
        # The one event-firing loop, with EventQueue.pop inlined: firing
        # an event calls nothing but its callback.
        events = self.events
        heap = events._heap
        while heap:
            at, _sequence, event = heap[0]
            if event.cancelled:
                heappop(heap)
                continue
            if at > time:
                break
            heappop(heap)
            events._live -= 1
            if at < self.now:
                raise SchedulingError(
                    "event queue returned an event in the past"
                )
            self.now = at
            self._events_fired += 1
            event.callback(*event.args)
        self.now = time

    @property
    def events_fired(self):
        """Total number of events executed so far (diagnostics)."""
        return self._events_fired

    def __repr__(self):
        return (
            f"Simulator(now={self.now:.3f}, pending={len(self.events)}, "
            f"fired={self._events_fired})"
        )
