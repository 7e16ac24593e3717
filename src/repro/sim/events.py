"""Event queue for the discrete-event kernel.

A binary heap of ``(time, sequence, event)`` entries: ``heapq`` orders
them with C tuple comparison, and the unique ``sequence`` keeps events
scheduled for the same instant in FIFO order.  Cancellation flags the
event (O(1)); flagged entries are skipped when popped and purged in bulk
once they outnumber the live ones.

:class:`~repro.sim.kernel.Simulator` keeps its events here but runs
:meth:`EventQueue.push` and :meth:`EventQueue.pop` inlined in its own
``schedule`` and ``run_until``, the frames a campaign spends its event
loop in; a change to either method goes in both places.
"""

import heapq
import math

__all__ = ["Event", "EventQueue"]

# Purge cancelled entries once they are more than half of a heap holding
# more than this many entries -- the policy asyncio applies to cancelled
# timers.  Small heaps are never purged: popping skips the dead entries
# cheaply enough.
PURGE_MIN_ENTRIES = 100


class Event:
    """A scheduled callback.

    Events fire in ``(time, sequence)`` order so that two events scheduled
    for the same instant fire in scheduling order — determinism matters
    more than fairness here.
    """

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(self, time, sequence, callback, args):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Mark the event so the kernel skips it when it is popped."""
        self.cancelled = True

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, #{self.sequence}, {name}{state})"


class EventQueue:
    """Binary heap of :class:`Event` objects with lazy cancellation.

    Heap entries are ``(time, sequence, event)`` tuples.  The keys are
    unique, so the order in which live events pop depends only on the
    set of entries, never on the heap's layout: dropping cancelled
    entries and re-heapifying cannot reorder anything that fires.
    """

    def __init__(self):
        self._heap = []
        self._sequence = 0
        self._live = 0

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def push(self, time, callback, args=()):
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def pop(self, limit=math.inf):
        """Remove and return the earliest live event.

        Returns None when no live event is left, or when the earliest
        one is later than ``limit`` (it then stays queued).
        """
        heap = self._heap
        while heap:
            time, _sequence, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if time > limit:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return event
        return None

    def cancel(self, event):
        """Cancel an event previously returned by :meth:`push`."""
        if event.cancelled:
            return
        event.cancel()
        self._live -= 1
        heap = self._heap
        size = len(heap)
        if size > PURGE_MIN_ENTRIES and (size - self._live) * 2 > size:
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)

    def clear(self):
        self._heap.clear()
        self._live = 0
