"""Supervised shard execution for the parallel campaign.

The paper's metrics are only comparable across (BT, FIT) pairs when a
campaign completes *whole*: SPCf/THRf/RTMf and ADMf are ratios over the
full set of injection slots, so a run that silently loses slots is not a
data point, it is a different experiment.  ``ParallelCampaign``'s workers
are ordinary processes, though, and processes die: a mutant can take the
interpreter down, a host can OOM-kill a worker, a pathological fault can
hang a shard forever.  Before this module, any of those raised straight
out of ``as_completed`` and lost the entire campaign.

:class:`ShardSupervisor` sits between the campaign and its worker
processes and turns worker failure into an explicit, bounded protocol:

* **Crash** — a shard task that raises is retried on a fresh dispatch,
  up to ``max_retries`` retries.
* **Worker death** — a worker that disappears (``SIGKILL``, OOM, an
  interpreter abort) loses the one shard it was running: every
  dispatch goes to one worker, so that shard is charged and retried,
  and its neighbours on other workers are untouched.  A loopback
  worker is re-forked in its place, which counts as one rebuild.
* **Hang** — every dispatch carries a wall-clock deadline
  (``shard_timeout``).  A shard that exceeds it is charged, and its
  worker is killed and re-forked (a hung worker cannot be preempted any
  other way) — also one rebuild.
* **Quarantine** — a shard charged more than ``max_retries`` times is
  recorded as a :class:`QuarantinedShard` (with the fault ids it was
  carrying) instead of being retried forever.  The campaign then
  completes with ``degraded=True`` rather than dying.
* **Serial fallback** — once the workers have been rebuilt more than
  ``max_pool_rebuilds`` times the supervisor withdraws every shard no
  worker has started: the fabric finishes the ones it is running, and
  the rest run in-process, serially.  Hangs cannot be detected in this
  mode (there is no one left to watch), but crashes are still retried
  and quarantined.

With one worker (or one shard) every shard runs in-process on that same
serial path.  With more, the shards go to the loopback fabric of
:mod:`repro.harness.fabric` — ``workers`` local worker processes —
unless ``backend_factory`` supplies another fabric (the campaign's adds
a result decoder and, optionally, a listen address for remote
workers).  The supervisor is generic over the task: ``run(shards,
task)`` accepts any picklable ``task(shard) -> outcome`` callable, which
is what the supervision tests exploit to inject crashes, kills, and
hangs without a real campaign underneath.
"""

import time
from collections import deque
from dataclasses import dataclass, field

from repro.harness.fabric.coordinator import FabricCoordinator
from repro.harness.telemetry import NullTelemetry

__all__ = [
    "QuarantinedShard",
    "ShardSupervisor",
    "SupervisionReport",
]

DEFAULT_MAX_RETRIES = 2
DEFAULT_MAX_POOL_REBUILDS = 3


@dataclass(frozen=True)
class QuarantinedShard:
    """A shard given up on after exhausting its retry budget."""

    shard_index: int
    first_slot: int
    num_slots: int
    fault_ids: tuple
    attempts: int
    failures: tuple

    def to_dict(self):
        return {
            "shard_index": self.shard_index,
            "first_slot": self.first_slot,
            "num_slots": self.num_slots,
            "fault_ids": list(self.fault_ids),
            "attempts": self.attempts,
            "failures": list(self.failures),
        }


@dataclass
class SupervisionReport:
    """Everything one supervised pass over a shard list produced."""

    outcomes: dict = field(default_factory=dict)
    quarantined: list = field(default_factory=list)
    retries: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False

    @property
    def degraded(self):
        """True when at least one shard's slots are missing."""
        return bool(self.quarantined)


class _Attempt:
    """Bookkeeping for one shard: every charged failure, in order."""

    __slots__ = ("shard", "failures")

    def __init__(self, shard):
        self.shard = shard
        self.failures = []


class ShardSupervisor:
    """Runs shard tasks on worker processes and survives the workers.

    One supervisor owns at most one fabric at a time and may be reused
    across many :meth:`run` calls (the campaign reuses it across
    iterations so the fork and registration cost is paid once).
    ``backend_factory`` builds that fabric; the default is a
    :class:`~repro.harness.fabric.FabricCoordinator` with
    ``workers`` loopback workers.  Call :meth:`close` — or use it as a
    context manager — when done.
    """

    def __init__(self, workers=1, *, shard_timeout=None,
                 max_retries=DEFAULT_MAX_RETRIES,
                 max_pool_rebuilds=DEFAULT_MAX_POOL_REBUILDS,
                 poll_seconds=0.05, telemetry=None,
                 backend_factory=None):
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.workers = max(1, int(workers))
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.max_pool_rebuilds = max_pool_rebuilds
        self.poll_seconds = poll_seconds
        self.telemetry = telemetry if telemetry is not None else NullTelemetry()
        self._backend_factory = backend_factory
        self._backend = None
        self._last_stats = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        self._release_backend()

    def _ensure_backend(self):
        if self._backend is None:
            if self._backend_factory is not None:
                self._backend = self._backend_factory()
            else:
                self._backend = FabricCoordinator(
                    loopback_workers=self.workers,
                    shard_timeout=self.shard_timeout,
                )
        return self._backend

    def _release_backend(self):
        if self._backend is None:
            return
        self._last_stats = self._backend.stats()
        self._backend.shutdown()
        self._backend = None

    def backend_stats(self):
        """The manifest's ``fabric`` block: the active (or last) fabric's
        summary, or the in-process executor's when none ran."""
        if self._backend is not None:
            return self._backend.stats()
        if self._last_stats is not None:
            return dict(self._last_stats)
        return {"backend": "serial", "workers": self.workers}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, shards, task, on_outcome=None):
        """Run ``task`` over every shard; never raises for worker faults.

        Returns a :class:`SupervisionReport`; completed outcomes are in
        ``report.outcomes`` keyed by shard index, and ``on_outcome`` (if
        given) is called in the parent as each one lands — the campaign
        journals through it.
        """
        report = SupervisionReport()
        shards = list(shards)
        if not shards:
            return report
        if self._backend_factory is None and (
                self.workers <= 1 or len(shards) == 1):
            queue = deque(_Attempt(shard) for shard in shards)
            self._run_serial(queue, task, report, on_outcome)
            return report
        self._run_backend(shards, task, report, on_outcome)
        return report

    # ------------------------------------------------------------------
    # Fabric mode
    # ------------------------------------------------------------------
    def _run_backend(self, shards, task, report, on_outcome):
        backend = self._ensure_backend()
        pending = deque(_Attempt(shard) for shard in shards)
        inflight = {}
        while pending or inflight:
            if report.pool_rebuilds > self.max_pool_rebuilds:
                # The workers keep dying under us: take back every shard
                # no worker has started, so only the assigned ones
                # finish (journaled via on_outcome).
                self._apply_events(backend.withdraw(), pending, inflight,
                                   report, on_outcome)
                if not inflight:
                    report.serial_fallback = True
                    self.telemetry.emit(
                        "serial_fallback",
                        remaining=len(pending),
                        pool_rebuilds=report.pool_rebuilds,
                    )
                    self._release_backend()
                    self._run_serial(pending, task, report, on_outcome)
                    return
            else:
                while pending:
                    self._submit(backend, pending.popleft(), task,
                                 inflight)
            if inflight:
                events = backend.drain(self.poll_seconds)
                self._apply_events(events, pending, inflight, report,
                                   on_outcome)

    def _submit(self, backend, attempt, task, inflight):
        inflight[attempt.shard.index] = attempt
        backend.submit_shard(attempt.shard.index, attempt.shard, task)
        self.telemetry.emit(
            "shard_dispatch",
            shard=attempt.shard.index,
            attempt=len(attempt.failures) + 1,
        )

    def _apply_events(self, events, pending, inflight, report,
                      on_outcome):
        for event in events:
            if event.kind == "info":
                self.telemetry.emit(event.event, **event.fields)
                continue
            if event.kind == "backend_lost":
                report.pool_rebuilds += 1
                self.telemetry.emit("pool_rebuild", reason=event.reason,
                                    **event.fields)
                continue
            attempt = inflight.pop(event.ticket, None)
            if attempt is None:
                # A late event for a ticket already resolved (e.g. a
                # result that raced its worker's death): ignore.
                continue
            if event.kind == "done":
                self._complete(report, attempt, event.outcome,
                               event.seconds, on_outcome)
            elif (event.kind == "requeue"
                  or not self._fail(report, attempt, event.reason)):
                pending.append(attempt)

    # ------------------------------------------------------------------
    # Serial mode (workers=1, single shard, or fallback)
    # ------------------------------------------------------------------
    def _run_serial(self, queue, task, report, on_outcome):
        while queue:
            attempt = queue.popleft()
            started = time.monotonic()
            try:
                outcome = task(attempt.shard)
            except Exception as exception:  # noqa: BLE001 — supervision
                if not self._fail(report, attempt,
                                  f"crash: {exception!r}"):
                    queue.append(attempt)
                continue
            self._complete(report, attempt, outcome,
                           time.monotonic() - started, on_outcome)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _complete(self, report, attempt, outcome, seconds, on_outcome):
        report.outcomes[attempt.shard.index] = outcome
        event = {
            "shard": attempt.shard.index,
            "seconds": round(seconds, 6),
            "attempts": len(attempt.failures) + 1,
        }
        for counter in ("mis", "kns", "kcp", "faults_injected"):
            value = getattr(outcome, counter, None)
            if value is not None:
                event[counter] = value
        # Integrity protocol: surface per-shard contamination and reboot
        # counts in the event stream (the records themselves travel in
        # the outcome).
        for counter in ("contaminated_slots", "reboots"):
            value = getattr(outcome, counter, None)
            if value is not None:
                event[counter] = len(value)
        self.telemetry.emit("shard_done", **event)
        if on_outcome is not None:
            on_outcome(outcome)

    def _fail(self, report, attempt, reason):
        """Charge one failure; returns True when the shard is quarantined."""
        attempt.failures.append(reason)
        shard = attempt.shard
        if len(attempt.failures) > self.max_retries:
            quarantined = QuarantinedShard(
                shard_index=shard.index,
                first_slot=shard.first_slot,
                num_slots=len(shard.locations),
                fault_ids=tuple(
                    location.fault_id for location in shard.locations
                ),
                attempts=len(attempt.failures),
                failures=tuple(attempt.failures),
            )
            report.quarantined.append(quarantined)
            self.telemetry.emit(
                "shard_quarantine",
                shard=shard.index,
                first_slot=shard.first_slot,
                fault_ids=list(quarantined.fault_ids),
                failures=list(quarantined.failures),
            )
            return True
        report.retries += 1
        self.telemetry.emit(
            "shard_retry",
            shard=shard.index,
            reason=reason,
            attempt=len(attempt.failures),
        )
        return False
