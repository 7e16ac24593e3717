"""The durable spec queue: the service's source of truth on disk.

One append-only JSONL file holds the daemon's entire queue state, in
the same discipline as the campaign journal: every record is one line,
fsync'd before the operation it records is acknowledged, and a crash
can tear at most the final line (the shared torn-tail reader drops it,
and opening the queue cuts it off before the first new append).
Replaying the file front to back reconstructs the queue exactly, which
is the whole recovery story — there is no other state.

Two record kinds:

* ``spec``  — an accepted submission: ``{"kind": "spec", "id", "seq",
  "spec": {...}}``.  Appended exactly once per campaign, *before* the
  submitter gets its 202.
* ``state`` — a transition: ``{"kind": "state", "id", "state", ...}``
  with ``state`` one of ``queued`` / ``running`` / ``done`` /
  ``failed`` plus free-form detail (attempt count, digest, error).
  The latest state record for an id wins.

An entry whose replayed state is ``running`` marks a campaign that was
in flight when the process died; :mod:`.recovery` flips it back to
``queued`` (durably, so the flip itself survives a second crash) and
the per-campaign journal makes the rerun resume instead of repeat.

Admission control lives here too: ``submit`` counts queued + running
entries against ``capacity`` and raises :class:`QueueFull` — carrying
the ``Retry-After`` hint — instead of growing without bound.
"""

import hashlib
import json
import os
import threading
from pathlib import Path

from repro.harness.jsonl import drop_torn_tail, read_jsonl

__all__ = ["QueueEntry", "QueueFull", "SpecQueue"]

#: Every state a queue entry can be in.  ``queued`` and ``running`` are
#: *active* (they count against capacity); ``done`` and ``failed`` are
#: terminal.
STATES = ("queued", "running", "done", "failed")
ACTIVE_STATES = ("queued", "running")


class QueueFull(RuntimeError):
    """The queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, capacity, retry_after):
        super().__init__(
            f"queue at capacity ({capacity} active campaign(s)); "
            f"retry in {retry_after:g}s"
        )
        self.capacity = capacity
        self.retry_after = retry_after


class QueueEntry:
    """One accepted campaign spec and its current state."""

    def __init__(self, entry_id, seq, spec):
        self.id = entry_id
        self.seq = seq
        self.spec = spec
        self.state = "queued"
        self.detail = {}

    def apply(self, state, detail):
        self.state = state
        self.detail.update(detail)

    def to_dict(self):
        return {
            "id": self.id,
            "seq": self.seq,
            "state": self.state,
            "spec": self.spec,
            **self.detail,
        }


class SpecQueue:
    """The durable queue; thread-safe, one writer handle, fsync'd."""

    def __init__(self, path, capacity=16):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.path = Path(path)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries = {}
        self._order = []
        self._seq = 0
        self._replay()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        drop_torn_tail(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def _replay(self):
        for _lineno, record in read_jsonl(self.path):
            kind = record.get("kind")
            if kind == "spec":
                entry = QueueEntry(
                    record["id"], record["seq"], record["spec"]
                )
                self._entries[entry.id] = entry
                self._order.append(entry.id)
                self._seq = max(self._seq, entry.seq + 1)
            elif kind == "state":
                entry = self._entries.get(record.get("id"))
                if entry is None:
                    # A state record for a spec we never saw can only
                    # mean the spec line itself was torn away — nothing
                    # to transition, skip it.
                    continue
                detail = {
                    key: value for key, value in record.items()
                    if key not in ("kind", "id", "state")
                }
                entry.apply(record["state"], detail)

    def _append(self, record):
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    def submit(self, spec, retry_after=5.0):
        """Accept a spec; returns the new entry or raises QueueFull."""
        with self._lock:
            if self.active_count() >= self.capacity:
                raise QueueFull(self.capacity, retry_after)
            seq = self._seq
            self._seq += 1
            digest = hashlib.sha256(
                json.dumps(spec, sort_keys=True).encode("utf-8")
            ).hexdigest()
            entry = QueueEntry(f"c{seq:04d}-{digest[:12]}", seq, spec)
            self._append({
                "kind": "spec",
                "id": entry.id,
                "seq": entry.seq,
                "spec": entry.spec,
            })
            self._entries[entry.id] = entry
            self._order.append(entry.id)
            return entry

    def mark(self, entry_id, state, **detail):
        """Durably record a state transition for ``entry_id``."""
        if state not in STATES:
            raise ValueError(f"unknown queue state {state!r}")
        with self._lock:
            entry = self._entries[entry_id]
            self._append({
                "kind": "state",
                "id": entry_id,
                "state": state,
                **detail,
            })
            entry.apply(state, detail)
            return entry

    # ------------------------------------------------------------------
    def get(self, entry_id):
        return self._entries.get(entry_id)

    def in_order(self):
        """Entries in submission order (the scheduling order)."""
        return [self._entries[entry_id] for entry_id in self._order]

    def next_queued(self):
        """The oldest entry still waiting to run, or None."""
        with self._lock:
            for entry in self.in_order():
                if entry.state == "queued":
                    return entry
        return None

    def active_count(self):
        return sum(1 for entry in self._entries.values()
                   if entry.state in ACTIVE_STATES)

    def state_counts(self):
        counts = {}
        for entry in self._entries.values():
            counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts

    def __len__(self):
        return len(self._entries)

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None
