"""The fabric coordinator: a shard queue over socket pairs, with
supervision.

:class:`FabricCoordinator` is what the supervisor's five calls talk to::

    submit_shard(ticket, shard, task)           # queue one shard
    drain(timeout)     -> list[ShardEvent]      # serve; what happened
    withdraw()         -> list[ShardEvent]      # unqueue unstarted shards
    shutdown()                                  # release everything
    stats()            -> dict                  # manifest `fabric` block

The coordinator forks its workers itself (``multiprocessing.Process``
running :class:`.FabricWorker`), each on one end of a
``socket.socketpair()`` whose other end it keeps, so a worker is on the
roster from the moment it is forked: there is no listener and no
registration.  The campaign builds the fabric after it warms the mutant
cache, so workers inherit the warm cache.  A worker that dies, hangs or
falls silent is killed outright in the reap and re-forked under the
same name at the next drain.

It runs no thread of its own: every socket is served from inside
:meth:`drain`, on the supervisor's thread, by one ``select`` over every
worker's socket.  Workers *pull* work ("steal" messages) rather than
being pushed it, so a slow worker naturally takes fewer shards and a
dead one takes none — the scheduling is load-driven without the
coordinator modelling worker speed at all — and the per-shard deadline
clock starts at assignment (steal) time, not submit time.

Messages (flat JSON objects over :mod:`.protocol` frames):

worker → coordinator
    ``steal``     give me a shard
    ``heartbeat`` still alive (sent while running a shard)
    ``result``    ticket + a ShardOutcome dict
    ``error``     ticket + the repr of the exception the task raised

coordinator → worker
    ``assign``     ticket + base64(pickle((task, shard)))
    ``wait``       no work right now; retry after ``seconds``
    ``shutdown``   drain finished, exit

A fabric dispatch is always attributable (one shard, one worker, one
socket), so a lost worker *charges* its shard directly: there is no
ambiguity to resolve, and the bounded retry budget still caps a poison
shard that kills every worker it lands on.  Result fragments go through
``decoder`` (the campaign passes ``ShardOutcome.from_dict``); one the
decoder rejects is a charged failure rather than poison in the merge.
"""

import base64
import multiprocessing
import os
import pickle
import select
import socket
import time
from dataclasses import dataclass, field

from repro.harness.fabric.protocol import FrameError, recv_frame, send_frame
from repro.harness.fabric.worker import FabricWorker

__all__ = ["CHAOS_KILL_ENV", "FabricCoordinator", "ShardEvent"]

DEFAULT_HEARTBEAT_SECONDS = 0.5
# The longest one select waits before deadlines and heartbeats are
# checked again.
TICK_SECONDS = 0.1

# CI chaos hook: when set to N, the first loopback-0 process SIGKILLs
# itself on its Nth assignment (see
# FabricWorker.chaos_kill_after_assignments); its replacement is unarmed.
CHAOS_KILL_ENV = "REPRO_FABRIC_CHAOS_KILL_AFTER"


def _loopback_worker_main(conn, inherited, heartbeat_seconds,
                          chaos_kill_after):
    # The fork copied every coordinator end the parent held: this
    # worker's own and those of the workers forked before it.  A copy
    # left open here would keep that worker from reading EOF once its
    # coordinator is gone, so it would outlive a killed campaign.
    for sock in inherited:
        sock.close()
    FabricWorker(
        conn,
        heartbeat_seconds=heartbeat_seconds,
        chaos_kill_after_assignments=chaos_kill_after,
    ).run()


@dataclass
class ShardEvent:
    """One thing the fabric has to tell the supervisor.

    ``kind`` is one of:

    * ``done``         — ``ticket`` completed with ``outcome``.
    * ``failed``       — ``ticket`` suffered a *charged* failure
      (``reason``); the supervisor retries or quarantines it.
    * ``requeue``      — ``ticket`` must re-run but is *not* charged
      (withdrawn before any worker started it).
    * ``backend_lost`` — a worker was reaped and will be re-forked;
      counts against the supervisor's rebuild budget, whose exhaustion
      ends in serial fallback.
    * ``info``         — telemetry only: the supervisor emits ``event``
      with ``fields`` on its own stream.
    """

    kind: str
    ticket: int | None = None
    outcome: object = None
    seconds: float = 0.0
    reason: str = ""
    event: str = ""
    fields: dict = field(default_factory=dict)


class _WorkerState:
    """Coordinator-side record of one worker process and its socket."""

    __slots__ = ("name", "process", "conn", "alive", "last_seen",
                 "shards_done")

    def __init__(self, name, process, conn):
        self.name = name
        self.process = process
        self.conn = conn
        self.alive = True
        self.last_seen = time.monotonic()
        self.shards_done = 0


class FabricCoordinator:
    """Forks workers, deals shards, survives the workers."""

    def __init__(self, *, workers, shard_timeout=None,
                 heartbeat_seconds=DEFAULT_HEARTBEAT_SECONDS,
                 heartbeat_grace=None, decoder=None,
                 chaos_kill_after=None):
        if workers < 1:
            raise ValueError(
                f"fabric coordinator needs workers >= 1, got {workers}"
            )
        self.shard_timeout = shard_timeout
        self.heartbeat_seconds = heartbeat_seconds
        # A running worker heartbeats every ``heartbeat_seconds`` and an
        # idle one steals every 0.05 s; missing several heartbeats in a
        # row means the process is stuck or gone, not merely slow.
        self.heartbeat_grace = (
            heartbeat_grace if heartbeat_grace is not None
            else max(heartbeat_seconds * 6, 2.0)
        )
        self._decoder = decoder
        self._connections = {}       # socket -> live _WorkerState
        self._workers = {}           # worker name -> _WorkerState
        self._work = []              # [(ticket, payload_b64), ...] FIFO
        self._assignments = {}       # worker name -> (ticket, deadline, t0)
        self._events = []
        self._counters = {
            "steals": 0, "requeues": 0, "heartbeats": 0,
            "worker_deaths": 0, "results": 0,
        }
        if chaos_kill_after is None:
            chaos_env = os.environ.get(CHAOS_KILL_ENV)
            if chaos_env:
                chaos_kill_after = int(chaos_env)
        self._replace = []    # names killed, to re-fork at next drain
        for index in range(workers):
            self._fork(f"loopback-{index}",
                       chaos_kill_after if index == 0 else None)

    def _fork(self, name, chaos_kill_after=None):
        ours, theirs = socket.socketpair()
        process = multiprocessing.Process(
            target=_loopback_worker_main,
            args=(theirs, [ours, *self._connections],
                  self.heartbeat_seconds, chaos_kill_after),
            name=f"fabric-{name}",
            daemon=True,
        )
        process.start()
        theirs.close()
        # Whole frames under a generous timeout: a mid-frame timeout
        # would tear the stream.
        ours.settimeout(5.0)
        state = _WorkerState(name=name, process=process, conn=ours)
        previous = self._workers.get(name)
        if previous is not None:
            state.shards_done = previous.shards_done
        self._workers[name] = state
        self._connections[ours] = state
        self._info("fabric_worker_register", worker=name, pid=process.pid)

    # ------------------------------------------------------------------
    # The supervisor's interface
    # ------------------------------------------------------------------
    def submit_shard(self, ticket, shard, task):
        payload = base64.b64encode(
            pickle.dumps((task, shard))).decode("ascii")
        self._work.append((ticket, payload))

    def drain(self, timeout):
        """Serve the workers until there is an event or ``timeout``
        passes; returns everything that happened since the last drain.

        The workers reaped at the last drain are re-forked first: by now
        the supervisor has seen the loss and had its chance to withdraw
        the queue.
        """
        for name in self._replace:
            self._fork(name)
        self._replace = []
        deadline = time.monotonic() + timeout
        while True:
            self._serve(min(TICK_SECONDS,
                            max(0.0, deadline - time.monotonic())))
            self._check_clocks()
            if self._events or time.monotonic() >= deadline:
                events, self._events = self._events, []
                return events

    def withdraw(self):
        """Requeue events for every shard no worker has started, in
        queue order, so only the assigned ones finish here."""
        events = [
            ShardEvent("requeue", ticket=ticket, reason="withdrawn")
            for ticket, _payload in self._work
        ]
        self._work.clear()
        return events

    def stats(self):
        roster = sorted(
            (
                {
                    "name": state.name,
                    "pid": state.process.pid,
                    "shards_done": state.shards_done,
                    "alive": state.alive,
                }
                for state in self._workers.values()
            ),
            key=lambda entry: entry["name"],
        )
        summary = {"backend": "fabric", "workers": len(roster),
                   "roster": roster}
        summary.update(self._counters)
        return summary

    def shutdown(self):
        for conn in self._connections:
            try:
                send_frame(conn, {"type": "shutdown"})
            except (OSError, FrameError):
                pass
        for state in self._workers.values():
            state.process.join(timeout=2.0)
            if state.process.is_alive():
                state.process.kill()
                state.process.join(timeout=2.0)
        for conn in self._connections:
            conn.close()
        self._connections.clear()

    # ------------------------------------------------------------------
    # Serving the sockets
    # ------------------------------------------------------------------
    def _serve(self, timeout):
        """Handle every readable socket, waiting up to ``timeout`` for
        the first, then keep reading until none is.

        Every frame already waiting is read before :meth:`_check_clocks`
        judges heartbeats, so a drain that comes late (the supervisor
        fsyncs its journal between drains) never reaps a live worker on
        a stale ``last_seen``; and a steal that arrives right behind its
        result is answered before the ``done`` event goes back, so the
        worker does not wait out the journal write.
        """
        ready = self._readable(timeout)
        while ready:
            for sock in ready:
                self._read(self._connections[sock])
            ready = self._readable(0.0)

    def _readable(self, timeout):
        return select.select(list(self._connections), [], [], timeout)[0]

    def _read(self, state):
        """Read and act on one frame from a worker."""
        try:
            message = recv_frame(state.conn)
        except FrameError as exc:
            # Torn frame, corrupt length prefix, invalid JSON: a clean
            # protocol error.  The reap requeues the worker's in-flight
            # shard — the coordinator itself must never die on bad
            # bytes.
            self._info("fabric_protocol_error", worker=state.name,
                       error=str(exc))
            self._reap(state, f"protocol error: {exc}")
            return
        except OSError:
            message = None
        if message is None:
            self._reap(state, "connection lost")
            return
        state.last_seen = time.monotonic()
        kind = message.get("type")
        if kind == "steal":
            self._on_steal(state)
        elif kind == "heartbeat":
            self._counters["heartbeats"] += 1
        elif kind == "result":
            self._on_result(state, message)
        elif kind == "error":
            self._on_error(state, message)

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _on_steal(self, state):
        if not self._work:
            reply = {"type": "wait", "seconds": 0.05}
        else:
            ticket, payload = self._work.pop(0)
            now = time.monotonic()
            deadline = (now + self.shard_timeout
                        if self.shard_timeout is not None else None)
            self._assignments[state.name] = (ticket, deadline, now)
            self._counters["steals"] += 1
            reply = {"type": "assign", "ticket": ticket,
                     "payload": payload}
        try:
            send_frame(state.conn, reply)
        except (OSError, FrameError):
            # The worker vanished between steal and assign; its socket
            # reads as closed next, and the reap reclaims the ticket.
            return
        if reply["type"] == "assign":
            self._info("fabric_steal", worker=state.name,
                       shard=reply["ticket"])

    def _on_result(self, state, message):
        ticket = message.get("ticket")
        assignment = self._assignments.get(state.name)
        if assignment is None or assignment[0] != ticket:
            return  # stale result for a ticket already reclaimed
        del self._assignments[state.name]
        self._counters["results"] += 1
        state.shards_done += 1
        outcome = message.get("outcome")
        if self._decoder is not None:
            try:
                outcome = self._decoder(outcome)
            except Exception as exception:  # noqa: BLE001
                self._events.append(ShardEvent(
                    "failed", ticket=ticket,
                    reason=f"undecodable fragment: {exception!r}",
                ))
                return
        self._events.append(ShardEvent(
            "done", ticket=ticket, outcome=outcome,
            seconds=time.monotonic() - assignment[2],
        ))

    def _on_error(self, state, message):
        ticket = message.get("ticket")
        assignment = self._assignments.get(state.name)
        if assignment is None or assignment[0] != ticket:
            return
        del self._assignments[state.name]
        self._events.append(ShardEvent(
            "failed", ticket=ticket,
            reason=f"crash: {message.get('error', 'unknown')}",
        ))

    def _info(self, event, **fields):
        self._events.append(ShardEvent("info", event=event,
                                       fields=fields))

    # ------------------------------------------------------------------
    # Reaping + clocks
    # ------------------------------------------------------------------
    def _reap(self, state, reason, charge=None):
        """A worker is gone or stuck: drop its socket and reclaim its
        shard, charged with ``charge`` (default: the death) — the
        dispatch was solo, so the culprit is unambiguous.

        The process is SIGKILLed here — it may be hung in a shard, and
        it may have inherited a SIGTERM handler from the process that
        forked it — and re-forked under the same name at the next
        drain; its replacement is one ``backend_lost``.
        """
        state.alive = False
        del self._connections[state.conn]
        state.conn.close()
        assignment = self._assignments.pop(state.name, None)
        self._counters["worker_deaths"] += 1
        self._info("fabric_worker_dead", worker=state.name, reason=reason)
        state.process.kill()
        state.process.join(timeout=5.0)
        self._replace.append(state.name)
        self._events.append(ShardEvent(
            "backend_lost", reason=reason, fields={"worker": state.name},
        ))
        if assignment is not None:
            self._counters["requeues"] += 1
            self._events.append(ShardEvent(
                "failed", ticket=assignment[0],
                reason=charge or f"worker died: {state.name} ({reason})",
            ))

    def _check_clocks(self):
        now = time.monotonic()
        for state in list(self._connections.values()):
            assignment = self._assignments.get(state.name)
            if (assignment is not None and assignment[1] is not None
                    and now >= assignment[1]):
                # Heartbeats prove liveness, not progress: drop the
                # worker stuck on the shard (closing its socket is the
                # only preemption there is).
                self._reap(state, "hang", charge=(
                    f"hang: exceeded {self.shard_timeout}s deadline"))
            elif now - state.last_seen > self.heartbeat_grace:
                # A running worker heartbeats and an idle one steals,
                # and every waiting frame was read before this check:
                # silence means the process is stuck or dead, even if
                # its socket is still open.  An idle worker's reap is
                # uncharged: it held no shard.
                self._reap(state, "heartbeat lost")
