"""Measurement collection and the SPECWeb99-style measures.

Every completed (or timed-out) operation is recorded as one
:class:`OpRecord`; at the end of a run the records are sliced into the
measurement windows the harness defines (the injection slots, or fixed
windows for baseline runs) and reduced to the paper's measures:

* **SPC** — mean number of simultaneous conforming connections per window
  (the main SPECWeb99 figure);
* **CC%** — SPC as a percentage of the offered connections;
* **THR** — operations per second (every operation that completed, error
  responses included — an error page is still an HTTP operation);
* **RTM** — mean response time of successful operations, in milliseconds;
* **ER%** — percentage of operations that failed (bad status, bad
  content, connection refused/reset, or timeout).
"""

import bisect
from dataclasses import dataclass, fields
from functools import reduce
from operator import add
from typing import NamedTuple

from repro.specweb.conformance import connection_conforms

__all__ = [
    "MetricsCollector",
    "MetricsPartial",
    "OpRecord",
    "SpecWebMetrics",
]


class OpRecord(NamedTuple):
    """One finished operation as the client saw it.

    A tuple, not a frozen dataclass: a campaign makes one per simulated
    operation, warm-up traffic included, and every snapshot image
    carries the warm-up ones.  A tuple is built without a
    ``__setattr__`` call per field and pickles smaller.
    """

    completed_at: float
    connection_id: int
    ok: bool
    latency: float
    bytes_received: int
    error_kind: str = ""


@dataclass(frozen=True)
class SpecWebMetrics:
    """The reduced measures for one run."""

    spc: float
    cc_percent: float
    thr: float
    rtm_ms: float
    er_percent: float
    total_ops: int
    total_errors: int
    measured_seconds: float

    def as_dict(self):
        return {
            "SPC": self.spc,
            "CC%": self.cc_percent,
            "THR": self.thr,
            "RTM": self.rtm_ms,
            "ER%": self.er_percent,
            "ops": self.total_ops,
            "errors": self.total_errors,
            "seconds": self.measured_seconds,
        }

    def __str__(self):
        return (
            f"SPC={self.spc:.1f} CC%={self.cc_percent:.1f} "
            f"THR={self.thr:.1f} RTM={self.rtm_ms:.1f}ms "
            f"ER%={self.er_percent:.2f}"
        )


@dataclass(frozen=True)
class MetricsPartial:
    """Mergeable partial sums behind :class:`SpecWebMetrics`.

    A campaign shard reduces its own windows to one partial; summing the
    partials of all shards (in slot order) and converting the result is
    how a parallel campaign reproduces the measures of a serial one.
    Merging is associative over shard boundaries, so the worker count
    never changes the merged numbers — only the shard plan does.
    """

    total_ops: int = 0
    total_errors: int = 0
    latency_sum: float = 0.0
    latency_count: int = 0
    conforming_sum: float = 0.0
    group_count: int = 0
    measured_seconds: float = 0.0

    @classmethod
    def merge(cls, partials):
        """Sum partials field by field, left to right from each field's
        default (callers must pass them in slot order; ``sum()`` would
        compensate float rounding from Python 3.12 on)."""
        partials = list(partials)
        return cls(**{
            spec.name: reduce(add, (getattr(partial, spec.name)
                                    for partial in partials), spec.default)
            for spec in fields(cls)
        })

    def to_metrics(self, num_connections):
        """Reduce the sums to :class:`SpecWebMetrics`."""
        spc = (
            self.conforming_sum / self.group_count if self.group_count
            else 0.0
        )
        thr = (
            self.total_ops / self.measured_seconds
            if self.measured_seconds > 0 else 0.0
        )
        rtm_ms = (
            1000.0 * self.latency_sum / self.latency_count
            if self.latency_count else 0.0
        )
        er_percent = (
            100.0 * self.total_errors / self.total_ops
            if self.total_ops else 0.0
        )
        cc_percent = 100.0 * spc / num_connections if num_connections else 0.0
        return SpecWebMetrics(
            spc=spc,
            cc_percent=cc_percent,
            thr=thr,
            rtm_ms=rtm_ms,
            er_percent=er_percent,
            total_ops=self.total_ops,
            total_errors=self.total_errors,
            measured_seconds=self.measured_seconds,
        )


class MetricsCollector:
    """Accumulates operation records in completion order."""

    def __init__(self, num_connections):
        self.num_connections = num_connections
        self._times = []
        self._records = []
        self.error_kinds = {}

    def record(self, record):
        self._times.append(record.completed_at)
        self._records.append(record)
        if not record.ok:
            self.error_kinds[record.error_kind] = (
                self.error_kinds.get(record.error_kind, 0) + 1
            )

    def __len__(self):
        return len(self._records)

    def records_between(self, start, end):
        """Records with ``start < completed_at <= end`` (time-ordered)."""
        low = bisect.bisect_right(self._times, start)
        high = bisect.bisect_right(self._times, end)
        return self._records[low:high]

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def _window_bytes(self, windows):
        """Bytes per (window index, connection), spread over op spans.

        An operation's bytes flowed over its whole duration, not at the
        instant it completed; attributing them proportionally to each
        overlapped window keeps short measurement windows (the 10 s
        injection slots) from starving connections that were mid-transfer
        on a large class-3 file.
        """
        if not windows:
            return {}
        starts = [start for start, _end in windows]
        result = {}
        # A record completed at or before the first window's start
        # overlaps no window (a zero-latency one lands in none either).
        first = bisect.bisect_right(self._times, starts[0])
        for record in self._records[first:]:
            if record.bytes_received <= 0:
                continue
            span_start = record.completed_at - record.latency
            span_end = record.completed_at
            duration = span_end - span_start
            if duration <= 1e-9:
                # Degenerate (instantaneous) op: all bytes land in the
                # window containing its completion instant.
                for window_index, (w_start, w_end) in enumerate(windows):
                    if w_start < record.completed_at <= w_end:
                        key = (window_index, record.connection_id)
                        result[key] = (
                            result.get(key, 0.0) + record.bytes_received
                        )
                        break
                continue
            # Windows are sorted; find the first that could overlap.
            index = bisect.bisect_right(starts, span_start) - 1
            index = max(0, index)
            for window_index in range(index, len(windows)):
                w_start, w_end = windows[window_index]
                if w_start >= span_end:
                    break
                overlap = min(w_end, span_end) - max(w_start, span_start)
                if overlap <= 0:
                    continue
                key = (window_index, record.connection_id)
                share = record.bytes_received * overlap / duration
                result[key] = result.get(key, 0.0) + share
        return result

    def compute(self, windows, conformance_group=1):
        """Reduce to :class:`SpecWebMetrics` over the given windows.

        ``windows`` is a list of ``(start, end)`` pairs in increasing
        order.  THR/RTM/ER% are computed over all windows; conformance
        (SPC) is evaluated per *group* of ``conformance_group``
        consecutive windows — SPECWeb99 judges conformance over whole
        measurement batches, so a single bad 10 s slot disqualifies the
        connections it hit for the batch it belongs to, as in the paper's
        collapsed SPCf numbers.  Gaps between windows never count toward
        a group's duration.  Groups without any completed operation are
        skipped (nothing was being measured there).
        """
        partial = self.compute_partial(
            windows, conformance_group=conformance_group
        )
        return partial.to_metrics(self.num_connections)

    def compute_partial(self, windows, conformance_group=1):
        """The mergeable sums behind :meth:`compute`.

        Campaign shard workers call this instead of :meth:`compute` so a
        parent process can merge shards before the final reduction.
        """
        total_ops = 0
        total_errors = 0
        latency_sum = 0.0
        latency_count = 0
        conforming_sum = 0.0
        group_count = 0
        measured_seconds = 0.0
        window_bytes = self._window_bytes(windows)
        group = max(1, int(conformance_group))
        for group_start in range(0, len(windows), group):
            group_windows = windows[group_start:group_start + group]
            group_seconds = 0.0
            per_connection = {}
            group_has_records = False
            for start, end in group_windows:
                group_seconds += end - start
                measured_seconds += end - start
                records = self.records_between(start, end)
                if records:
                    group_has_records = True
                for record in records:
                    total_ops += 1
                    if record.ok:
                        latency_sum += record.latency
                        latency_count += 1
                    else:
                        total_errors += 1
                    stats = per_connection.setdefault(
                        record.connection_id, [0, 0, 0.0]
                    )
                    stats[0] += 1
                    stats[1] += 0 if record.ok else 1
            # Fold the per-window byte shares into the group totals.
            for (w_index, connection_id), nbytes in window_bytes.items():
                if group_start <= w_index < group_start + len(group_windows):
                    stats = per_connection.setdefault(
                        connection_id, [0, 0, 0.0]
                    )
                    stats[2] += nbytes
            if not group_has_records:
                continue
            group_count += 1
            conforming = 0
            for ops, errors, nbytes in per_connection.values():
                if connection_conforms(nbytes, group_seconds, ops, errors):
                    conforming += 1
            conforming_sum += conforming
        return MetricsPartial(
            total_ops=total_ops,
            total_errors=total_errors,
            latency_sum=latency_sum,
            latency_count=latency_count,
            conforming_sum=conforming_sum,
            group_count=group_count,
            measured_seconds=measured_seconds,
        )
