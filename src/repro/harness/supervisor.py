"""Supervised shard execution for the parallel campaign: one dispatcher.

The paper's metrics are only comparable across (BT, FIT) pairs when a
campaign completes *whole*: SPCf/THRf/RTMf and ADMf are ratios over the
full set of injection slots, so a run that silently loses slots is not a
data point, it is a different experiment.  ``ParallelCampaign``'s workers
are ordinary processes, though, and processes die: a mutant can take the
interpreter down, a host can OOM-kill a worker, a pathological fault can
hang a shard forever.

:class:`ShardSupervisor` runs a campaign's shards and turns worker
failure into an explicit, bounded protocol:

* **Crash** — a shard task that raises is retried on a fresh dispatch,
  up to ``max_retries`` retries.
* **Worker death** — a worker that disappears (``SIGKILL``, OOM, an
  interpreter abort) loses the one shard it was running: every
  dispatch goes to one worker, so that shard is charged and retried,
  and its neighbours on other workers are untouched.
* **Hang** — every dispatch carries a wall-clock deadline
  (``shard_timeout``).  A shard that exceeds it is charged, even while
  its worker heartbeats, and the worker is killed (a hung worker cannot
  be preempted any other way).
* **Silence** — a worker that sends nothing for ``HEARTBEAT_GRACE``
  seconds, idle or busy, is killed; its shard is charged only if it
  holds one.
* **Quarantine** — a shard charged more than ``max_retries`` times is
  recorded as a :class:`QuarantinedShard` (with the fault ids it was
  carrying) instead of being retried forever.  The campaign then
  completes with ``degraded=True`` rather than dying.
* **Serial fallback** — every killed worker is re-forked under its name,
  and each kill counts as one pool rebuild.  Past ``MAX_POOL_REBUILDS``
  in one :meth:`run` the supervisor re-forks no more and assigns no
  more: the workers finish the shards they have started, and the rest
  of that run's shards run in-process, serially.  Hangs cannot be
  detected in this mode, but crashes are still retried and quarantined.
  Every run starts with a fresh budget and forks whatever workers the
  last one left closed or dead.

With one worker every shard runs in-process on that same serial path.
With N >= 2 the supervisor forks N workers at its first :meth:`run`
(after the campaign's mutant warm-up, so they inherit the warm memo),
each on one end of a ``socket.socketpair()``, and serves them all from
one ``select`` loop on its own thread: it runs no thread, so no fork is
ever made from a threaded process.

Every message is a frame: a 4-byte big-endian length, then that many
bytes of pickle.  The supervisor sends a worker one kind of message, the
pickled ``(task, shard)`` of an assignment; closing its end is the
shutdown.  A worker sends ``("heartbeat", None)`` as it starts and every
``HEARTBEAT_SECONDS`` after, for its whole life; ``("result", outcome)``
with the object the task returned; and ``("error", text)`` when the task
raised or its outcome could not be pickled.  A worker is assigned a
shard only once it has sent something, and only when it holds none.

The supervisor is generic over the task: ``run(shards, task)`` accepts
any picklable ``task(shard) -> outcome`` callable, which is what the
supervision tests exploit to inject crashes, kills, and hangs without a
real campaign underneath.
"""

import multiprocessing
import os
import pickle
import select
import signal
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.harness.telemetry import NullTelemetry

__all__ = [
    "CHAOS_KILL_ENV",
    "FrameError",
    "QuarantinedShard",
    "ShardSupervisor",
    "SupervisionReport",
    "recv_frame",
    "send_frame",
]

DEFAULT_MAX_RETRIES = 2
# Workers killed (dead, hung, silent or garbled) in one run before the
# supervisor stops re-forking them and runs that run's remaining shards
# in-process.
MAX_POOL_REBUILDS = 3
# The longest one select waits before deadlines and silence are judged.
TICK_SECONDS = 0.1
# A worker heartbeats as it starts and then this often, idle or busy;
# missing several in a row means the process is stuck or gone.
HEARTBEAT_SECONDS = 0.5
HEARTBEAT_GRACE = 3.0
# A shard result carries per-slot records but never bulk data; 64 MiB
# is orders of magnitude above any real frame and turns a corrupt
# length prefix into a clean error instead of an allocation bomb.
MAX_FRAME_BYTES = 64 * 1024 * 1024
# The supervisor's ends read a frame whole under this timeout, so a
# worker stopped mid-frame holds the loop up for at most this long.
READ_TIMEOUT = 5.0
# CI chaos hook: when set to N, the first loopback-0 process SIGKILLs
# itself on its Nth assignment; its replacement is unarmed.
CHAOS_KILL_ENV = "REPRO_FABRIC_CHAOS_KILL_AFTER"

_LENGTH = struct.Struct(">I")
_KINDS = ("heartbeat", "result", "error")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class FrameError(RuntimeError):
    """A frame could not be sent or read: oversized, torn, stalled or
    unpicklable."""


def send_frame(sock, message):
    """Pickle ``message`` and send it as one length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(payload)} bytes")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock, count):
    """Read exactly ``count`` bytes; None on EOF before the first."""
    data = bytearray()
    while len(data) < count:
        try:
            chunk = sock.recv(count - len(data))
        except socket.timeout:
            raise FrameError(
                f"stalled after {len(data)} of {count} bytes") from None
        if not chunk:
            if data:
                raise FrameError("connection closed mid-frame")
            return None
        data += chunk
    return data


def recv_frame(sock):
    """Read and unpickle one frame; None on a clean EOF at a frame
    boundary."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed mid-frame")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 — any bad bytes
        raise FrameError(f"unpicklable frame: {exc!r}") from exc


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def _worker_main(conn, inherited, kill_after):
    """One forked worker: run each shard it is sent until its
    supervisor's end closes."""
    # The fork copied every supervisor end the parent held: this
    # worker's own and those of the workers forked before it.  A copy
    # left open here would keep that worker from reading EOF once its
    # supervisor is gone, so it would outlive a killed campaign.
    for sock in inherited:
        sock.close()
    lock = threading.Lock()

    def send(kind, value=None):
        with lock:
            send_frame(conn, (kind, value))

    threading.Thread(target=_heartbeat, args=(send,), name="heartbeat",
                     daemon=True).start()
    assignments = 0
    with conn:
        try:
            while (message := recv_frame(conn)) is not None:
                assignments += 1
                if kill_after is not None and assignments >= kill_after:
                    # CI chaos mode: die like a real worker dies — no
                    # cleanup, mid-assignment.
                    os.kill(os.getpid(), signal.SIGKILL)
                task, shard = message
                try:
                    outcome = task(shard)
                except Exception as exception:  # noqa: BLE001
                    send("error", repr(exception))
                    continue
                try:
                    send("result", outcome)
                except OSError:
                    raise
                except Exception as exception:  # noqa: BLE001
                    # Unpicklable or oversized: nothing was sent.
                    send("error", f"unsendable outcome: {exception!r}")
        except (OSError, FrameError):
            pass  # the supervisor is gone


def _heartbeat(send):
    """A worker's lifetime heartbeat, busy or idle: its first message
    says it is ready for a shard."""
    while True:
        try:
            send("heartbeat")
        except (OSError, FrameError):
            return
        time.sleep(HEARTBEAT_SECONDS)


# ----------------------------------------------------------------------
# Accounting records
# ----------------------------------------------------------------------
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
    """What one :meth:`ShardSupervisor.run` produced."""

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


class _Worker:
    """The supervisor's record of one forked worker and its socket."""

    __slots__ = ("name", "process", "conn", "ready", "last_seen",
                 "attempt", "started", "deadline")

    def __init__(self, name, process, conn):
        self.name = name
        self.process = process
        self.conn = conn
        self.ready = False           # has sent a message since its fork
        self.last_seen = time.monotonic()
        self.attempt = None          # the shard it runs, if any
        self.started = 0.0
        self.deadline = None


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class ShardSupervisor:
    """Runs shard tasks on forked workers and survives the workers.

    One supervisor serves a whole campaign: it forks its workers at the
    first multi-worker :meth:`run` and keeps them across runs, and it
    keeps the campaign's running totals (``retries``, ``pool_rebuilds``,
    ``serial_fallback`` and the ``quarantined`` records) over every run;
    each run's :class:`SupervisionReport` holds that run's share, and
    the rebuild budget is spent per run.  Call :meth:`close` — or use it
    as a context manager — when done.
    """

    def __init__(self, workers=1, *, shard_timeout=None,
                 max_retries=DEFAULT_MAX_RETRIES, telemetry=None):
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.workers = max(1, int(workers))
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.telemetry = telemetry if telemetry is not None else NullTelemetry()
        self.retries = 0
        self.pool_rebuilds = 0
        self.serial_fallback = False
        self.quarantined = []
        self._rebuilds_before = 0    # pool_rebuilds as this run began
        self._workers = {}           # name -> its latest _Worker
        self._live = {}              # supervisor end -> live _Worker

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        """Close the supervisor's ends: an idle worker reads EOF and
        exits; one still running a shard is killed after 2 s."""
        live = list(self._live.values())
        self._live.clear()
        for worker in live:
            worker.conn.close()
        for worker in live:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, shards, task, on_outcome=None):
        """Run ``task`` over every shard; never raises for worker faults.

        Returns this run's :class:`SupervisionReport`; completed
        outcomes are in ``report.outcomes`` keyed by shard index, and
        ``on_outcome`` (if given) is called in the parent as each one
        lands — the campaign journals through it.
        """
        retries, quarantined = self.retries, len(self.quarantined)
        self._rebuilds_before = self.pool_rebuilds
        outcomes = {}
        pending = deque(_Attempt(shard) for shard in shards)
        fell_back = False
        if pending and self.workers > 1:
            fell_back = self._run_pool(pending, task, outcomes, on_outcome)
        self._run_serial(pending, task, outcomes, on_outcome)
        return SupervisionReport(
            outcomes=outcomes,
            quarantined=self.quarantined[quarantined:],
            retries=self.retries - retries,
            pool_rebuilds=self.pool_rebuilds - self._rebuilds_before,
            serial_fallback=fell_back,
        )

    # ------------------------------------------------------------------
    # Pool mode
    # ------------------------------------------------------------------
    def _run_pool(self, pending, task, outcomes, on_outcome):
        """Serve the workers until every shard is done or quarantined;
        returns True when this run fell back to serial, once no worker
        is running a shard."""
        # The first run forks the pool; a later one re-forks the workers
        # a fallback closed or a spent budget left dead.  Only the very
        # first loopback-0 is armed by the chaos hook.
        chaos = None if self._workers else os.environ.get(CHAOS_KILL_ENV)
        live = {worker.name for worker in self._live.values()}
        for index in range(self.workers):
            if f"loopback-{index}" not in live:
                self._fork(f"loopback-{index}",
                           int(chaos) if chaos and index == 0 else None)
        self._assign(pending, task)
        while pending or self._busy():
            if not self._busy() and (self._budget_spent() or not self._live):
                self.serial_fallback = True
                self.telemetry.emit(
                    "serial_fallback",
                    remaining=len(pending),
                    pool_rebuilds=self.pool_rebuilds - self._rebuilds_before,
                )
                self.close()
                return True
            done = self._serve(pending)
            # A worker's next shard goes out before on_outcome's journal
            # fsync, so no worker waits out the write.
            self._assign(pending, task)
            for attempt, outcome, seconds in done:
                self._complete(attempt, outcome, seconds, outcomes,
                               on_outcome)
        return False

    def _busy(self):
        return any(worker.attempt is not None
                   for worker in self._live.values())

    def _budget_spent(self):
        """True once this run has killed more workers than
        ``MAX_POOL_REBUILDS``."""
        return self.pool_rebuilds - self._rebuilds_before > MAX_POOL_REBUILDS

    def _fork(self, name, kill_after=None):
        ours, theirs = socket.socketpair()
        process = multiprocessing.get_context("fork").Process(
            target=_worker_main,
            args=(theirs, [ours, *self._live], kill_after),
            name=f"fabric-{name}",
            daemon=True,
        )
        process.start()
        theirs.close()
        ours.settimeout(READ_TIMEOUT)
        worker = _Worker(name, process, ours)
        self._workers[name] = worker
        self._live[ours] = worker
        self.telemetry.emit("fabric_worker_register", worker=name,
                            pid=process.pid)

    def _assign(self, pending, task):
        """Give every ready, idle worker the next shard — none once this
        run's rebuild budget is spent."""
        for worker in list(self._live.values()):
            if not pending or self._budget_spent():
                return
            if worker.ready and worker.attempt is None:
                self._send_shard(worker, pending.popleft(), task, pending)

    def _send_shard(self, worker, attempt, task, pending):
        try:
            send_frame(worker.conn, (task, attempt.shard))
        except OSError:
            # Gone since its last message (it may have died idle between
            # runs): it never held the shard, so the shard goes back
            # uncharged and only the worker is reaped.
            pending.appendleft(attempt)
            self._reap(worker, "connection lost", pending)
            return
        now = time.monotonic()
        worker.attempt = attempt
        worker.started = now
        if self.shard_timeout is not None:
            worker.deadline = now + self.shard_timeout
        self.telemetry.emit("shard_dispatch", shard=attempt.shard.index,
                            attempt=len(attempt.failures) + 1,
                            worker=worker.name)

    def _serve(self, pending):
        """Read every waiting message, waiting up to ``TICK_SECONDS``
        for the first, then judge deadlines and silence; returns the
        shards completed.

        Every message already waiting is read before the clocks are
        judged, so a late serve (the campaign fsyncs its journal
        between serves) never kills a live worker on a stale
        ``last_seen``.
        """
        done = []
        ready = self._readable(TICK_SECONDS)
        while ready:
            for conn in ready:
                worker = self._live.get(conn)
                if worker is not None:
                    self._read(worker, pending, done)
            ready = self._readable(0.0)
        self._check_clocks(pending)
        return done

    def _readable(self, timeout):
        return select.select(list(self._live), [], [], timeout)[0]

    def _read(self, worker, pending, done):
        """Read and act on one message from ``worker``."""
        try:
            message = recv_frame(worker.conn)
            if message is not None and not (
                    type(message) is tuple and len(message) == 2
                    and message[0] in _KINDS):
                raise FrameError(
                    f"not a worker message: {type(message).__name__}")
        except FrameError as exc:
            # Torn, oversized, stalled or unpicklable: the reap charges
            # the worker's shard — the supervisor itself must never die
            # on bad bytes.
            self.telemetry.emit("fabric_protocol_error", worker=worker.name,
                                error=str(exc))
            self._reap(worker, f"protocol error: {exc}", pending)
            return
        except OSError:
            message = None
        if message is None:
            self._reap(worker, "connection lost", pending)
            return
        worker.last_seen = time.monotonic()
        worker.ready = True
        kind, value = message
        if kind == "heartbeat":
            return
        attempt = worker.attempt
        worker.attempt = worker.deadline = None
        if kind == "result":
            done.append((attempt, value, worker.last_seen - worker.started))
        else:
            self._fail(attempt, f"crash: {value}", pending)

    def _check_clocks(self, pending):
        now = time.monotonic()
        for worker in list(self._live.values()):
            if worker.deadline is not None and now >= worker.deadline:
                # Heartbeats prove liveness, not progress: kill the
                # worker stuck on the shard.
                self._reap(worker, "hang", pending, charge=(
                    f"hang: exceeded {self.shard_timeout}s deadline"))
            elif now - worker.last_seen > HEARTBEAT_GRACE:
                # Every waiting message was read before this check:
                # silence means the process is stuck or dead, even if
                # its socket is open.  An idle worker's kill is
                # uncharged: it holds no shard.
                self._reap(worker, "heartbeat lost", pending)

    def _reap(self, worker, reason, pending, charge=None):
        """A worker is gone, stuck or garbled: SIGKILL it, charge its
        shard with ``charge`` (default: the death), and re-fork it under
        the same name while this run's rebuild budget lasts.

        The kill comes first: the worker may be hung in a shard, and it
        may have inherited a SIGTERM handler from the process that
        forked it.
        """
        del self._live[worker.conn]
        worker.conn.close()
        worker.process.kill()
        worker.process.join(timeout=5.0)
        self.pool_rebuilds += 1
        self.telemetry.emit("pool_rebuild", reason=reason, worker=worker.name)
        if worker.attempt is not None:
            self._fail(worker.attempt,
                       charge or f"worker died: {worker.name} ({reason})",
                       pending)
            worker.attempt = worker.deadline = None
        if not self._budget_spent():
            self._fork(worker.name)

    # ------------------------------------------------------------------
    # Serial mode (workers=1, or fallback)
    # ------------------------------------------------------------------
    def _run_serial(self, pending, task, outcomes, on_outcome):
        while pending:
            attempt = pending.popleft()
            started = time.monotonic()
            try:
                outcome = task(attempt.shard)
            except Exception as exception:  # noqa: BLE001 — supervision
                self._fail(attempt, f"crash: {exception!r}", pending)
                continue
            self._complete(attempt, outcome, time.monotonic() - started,
                           outcomes, on_outcome)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _complete(self, attempt, outcome, seconds, outcomes, on_outcome):
        outcomes[attempt.shard.index] = outcome
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

    def _fail(self, attempt, reason, pending):
        """Charge one failure: requeue the shard on ``pending``, or
        quarantine it once its retries are spent."""
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
            self.quarantined.append(quarantined)
            self.telemetry.emit(
                "shard_quarantine",
                shard=shard.index,
                first_slot=shard.first_slot,
                fault_ids=list(quarantined.fault_ids),
                failures=list(quarantined.failures),
            )
            return
        self.retries += 1
        self.telemetry.emit(
            "shard_retry",
            shard=shard.index,
            reason=reason,
            attempt=len(attempt.failures),
        )
        pending.append(attempt)
