"""The fabric coordinator: a TCP shard queue with supervision.

:class:`FabricCoordinator` is what the supervisor's five calls talk to::

    submit_shard(ticket, shard, task)           # queue one shard
    drain(timeout)     -> list[ShardEvent]      # serve; what happened
    withdraw()         -> list[ShardEvent]      # unqueue unstarted shards
    shutdown()                                  # release everything
    stats()            -> dict                  # manifest `fabric` block

It runs no thread of its own: every socket is served from inside
:meth:`drain`, on the supervisor's thread, by one ``select`` over the
listener and every worker connection.  Workers *pull* work ("steal"
messages) rather than being pushed it, so a slow worker naturally
takes fewer shards and a dead one takes none — the scheduling is
load-driven without the coordinator modelling worker speed at all —
and the per-shard deadline clock starts at assignment (steal) time,
not submit time.

Two deployment shapes share it, and combine:

* **loopback** — the coordinator forks N local worker processes
  (``multiprocessing.Process`` running :class:`.FabricWorker`); this is
  what ``--workers N`` runs.  The campaign builds the fabric after it
  warms the mutant cache, so workers inherit the warm cache.  A
  loopback worker that dies or hangs is killed outright in the reap
  and re-forked under the same name at the next drain.
* **listen** — the coordinator binds a caller-chosen address and waits
  for external ``repro campaign-worker host:port`` processes to
  register; those are never respawned (they are not ours to fork).

Messages (flat JSON objects over :mod:`.protocol` frames):

worker → coordinator
    ``register``  name/pid/host + protocol and journal versions
    ``steal``     give me a shard
    ``heartbeat`` still alive (sent while running a shard)
    ``result``    ticket + journal_version + a ShardOutcome dict
    ``error``     ticket + the repr of the exception the task raised
    ``goodbye``   clean disconnect

coordinator → worker
    ``registered`` ack; carries the heartbeat interval to honour
    ``assign``     ticket + base64(pickle((task, shard)))
    ``wait``       no work right now; retry after ``seconds``
    ``shutdown``   drain finished, exit
    ``reject``     protocol mismatch; exit

A fabric dispatch is always attributable (one shard, one worker, one
connection), so a lost worker *charges* its shard directly: there is no
ambiguity to resolve, and the bounded retry budget still caps a poison
shard that kills every worker it lands on.  A result frame whose
``journal_version`` does not match ours is a *fragment version skew*:
the fragment is discarded and the shard charged (re-run by an honest
worker), never merged.  Other result fragments go through ``decoder``
(the campaign passes ``ShardOutcome.from_dict``); one the decoder
rejects is a charged failure rather than poison in the merge.

A frame is read whole once its socket is readable, so a remote worker
that stalls mid-frame holds up every worker for up to the 5 s socket
timeout.  Loopback frames arrive whole.
"""

import base64
import multiprocessing
import os
import pickle
import select
import socket
import time
from dataclasses import dataclass, field

from repro.harness.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)

__all__ = ["CHAOS_KILL_ENV", "FabricCoordinator", "ShardEvent"]

# How long the work queue may sit non-empty with zero live workers
# before the coordinator gives the shards back to the supervisor (which
# counts it against the rebuild budget and eventually falls back to
# serial execution).
DEFAULT_WORKER_GRACE = 30.0
DEFAULT_HEARTBEAT_SECONDS = 0.5
# The longest one select waits before deadlines, heartbeats and
# starvation are checked again.
TICK_SECONDS = 0.1

# CI chaos hook: when set to N, the first loopback-0 process SIGKILLs
# itself on its Nth assignment (see
# FabricWorker.chaos_kill_after_assignments); its replacement is unarmed.
CHAOS_KILL_ENV = "REPRO_FABRIC_CHAOS_KILL_AFTER"


def _loopback_worker_main(host, port, name, journal_version,
                          chaos_kill_after):
    from repro.harness.fabric.worker import FabricWorker
    # No redial: once the coordinator's socket closes — its process
    # exited or was killed — the worker exits instead of outliving it.
    FabricWorker(
        host, port,
        name=name,
        journal_version=journal_version,
        chaos_kill_after_assignments=chaos_kill_after,
        max_reconnects=0,
    ).run()


@dataclass
class ShardEvent:
    """One thing the fabric has to tell the supervisor.

    ``kind`` is one of:

    * ``done``         — ``ticket`` completed with ``outcome``.
    * ``failed``       — ``ticket`` suffered a *charged* failure
      (``reason``); the supervisor retries or quarantines it.
    * ``requeue``      — ``ticket`` must re-run but is *not* charged
      (handed back by a fabric with no live workers, or withdrawn
      before any worker started it).
    * ``backend_lost`` — a loopback worker was replaced, or every worker
      is gone; counts against the supervisor's rebuild budget, whose
      exhaustion ends in serial fallback.
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
    """Coordinator-side record of one worker connection."""

    __slots__ = ("name", "pid", "host", "conn", "alive", "clean_exit",
                 "last_seen", "shards_done")

    def __init__(self, name, pid, host, conn):
        self.name = name
        self.pid = pid
        self.host = host
        self.conn = conn
        self.alive = True
        self.clean_exit = False
        self.last_seen = time.monotonic()
        self.shards_done = 0


class FabricCoordinator:
    """Accepts workers, deals shards, survives the workers."""

    def __init__(self, *, loopback_workers=0, listen=None,
                 shard_timeout=None,
                 heartbeat_seconds=DEFAULT_HEARTBEAT_SECONDS,
                 heartbeat_grace=None, worker_grace=DEFAULT_WORKER_GRACE,
                 journal_version=None, decoder=None,
                 chaos_kill_after=None):
        if loopback_workers <= 0 and listen is None:
            raise ValueError(
                "fabric coordinator needs loopback workers, a listen "
                "address, or both"
            )
        if journal_version is None:
            from repro.harness.campaign import JOURNAL_VERSION
            journal_version = JOURNAL_VERSION
        self.shard_timeout = shard_timeout
        self.heartbeat_seconds = heartbeat_seconds
        # A worker heartbeats every ``heartbeat_seconds`` while running;
        # missing several in a row means the process (or the network to
        # it) is gone, not merely slow.
        self.heartbeat_grace = (
            heartbeat_grace if heartbeat_grace is not None
            else max(heartbeat_seconds * 6, 2.0)
        )
        self.worker_grace = worker_grace
        self.journal_version = journal_version
        self._decoder = decoder
        host, port = listen if listen is not None else ("127.0.0.1", 0)
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        self._pending = set()        # accepted, not yet registered
        self._connections = {}       # socket -> live _WorkerState
        self._workers = {}           # worker name -> _WorkerState
        self._work = []              # [(ticket, payload_b64), ...] FIFO
        self._assignments = {}       # worker name -> (ticket, deadline, t0)
        self._events = []
        self._counters = {
            "steals": 0, "requeues": 0, "heartbeats": 0,
            "worker_deaths": 0, "version_skew": 0, "results": 0,
        }
        self._starved_since = None
        if chaos_kill_after is None:
            chaos_env = os.environ.get(CHAOS_KILL_ENV)
            if chaos_env:
                chaos_kill_after = int(chaos_env)
        self._connect = (
            "127.0.0.1" if host in ("0.0.0.0", "::") else host,
            self.address[1],
        )
        self._processes = {}  # loopback worker name -> Process
        self._replace = []    # names killed, to re-fork at next drain
        # Workers that dial in before the first drain wait in the
        # listen backlog.
        for index in range(loopback_workers):
            self._fork(f"loopback-{index}",
                       chaos_kill_after if index == 0 else None)

    def _fork(self, name, chaos_kill_after=None):
        process = multiprocessing.Process(
            target=_loopback_worker_main,
            args=(*self._connect, name, self.journal_version,
                  chaos_kill_after),
            name=f"fabric-{name}",
            daemon=True,
        )
        process.start()
        self._processes[name] = process

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

        The loopback workers reaped at the last drain are re-forked
        first: by now the supervisor has seen the loss and had its
        chance to withdraw the queue.
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
                    "pid": state.pid,
                    "host": state.host,
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
        summary["loopback_workers"] = len(self._processes)
        return summary

    def shutdown(self):
        # Forked workers inherit the listener, so close() alone leaves
        # it accepting, and a replacement still dialling would connect
        # and wait out the join below.  shutdown() stops it listening
        # in every process that holds it.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for conn in self._pending:
            conn.close()
        self._pending.clear()
        for conn in self._connections:
            try:
                send_frame(conn, {"type": "shutdown"})
            except (OSError, FrameError):
                pass
        for process in self._processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        self._processes = {}
        for conn in self._connections:
            conn.close()
        self._connections.clear()

    # ------------------------------------------------------------------
    # Serving the sockets
    # ------------------------------------------------------------------
    def _serve(self, timeout):
        """Handle every readable socket, waiting up to ``timeout`` for
        the first, then keep reading until no worker socket is.

        Every frame already waiting is read before :meth:`_check_clocks`
        judges heartbeats, so a drain that comes late (the supervisor
        fsyncs its journal between drains) never reaps a live worker on
        a stale ``last_seen``; and a steal that arrives right behind its
        result is answered before the ``done`` event goes back, so the
        worker does not wait out the journal write.  The listener is
        polled once per call: a connection it cannot accept never spins
        this loop.
        """
        ready = self._readable([self._listener, *self._pending,
                                *self._connections], timeout)
        while ready:
            for sock in ready:
                if sock is self._listener:
                    self._accept()
                elif sock in self._pending:
                    self._register(sock)
                else:
                    self._read(self._connections[sock])
            ready = self._readable([*self._pending, *self._connections],
                                   0.0)

    @staticmethod
    def _readable(sockets, timeout):
        return select.select(sockets, [], [], timeout)[0]

    def _accept(self):
        try:
            conn, _peer = self._listener.accept()
        except OSError:
            return
        # Whole frames under a generous timeout: a mid-frame timeout
        # would tear the stream.
        conn.settimeout(5.0)
        self._pending.add(conn)

    def _register(self, conn):
        self._pending.discard(conn)
        try:
            hello = recv_frame(conn)
        except (OSError, FrameError):
            conn.close()
            return
        if (hello is None or hello.get("type") != "register"
                or hello.get("protocol") != PROTOCOL_VERSION):
            self._reject(conn, f"need register/protocol {PROTOCOL_VERSION}")
            return
        name =str(hello.get("name") or f"worker-{id(conn):x}")
        # A reconnecting name replaces its dead predecessor in the
        # roster; two *live* workers must not share one.
        previous = self._workers.get(name)
        if previous is not None and previous.alive:
            self._reject(conn, f"worker name {name!r} already live")
            return
        state = _WorkerState(name=name, pid=hello.get("pid"),
                             host=hello.get("host", ""), conn=conn)
        if previous is not None:
            state.shards_done = previous.shards_done
        self._workers[name] = state
        self._connections[conn] = state
        try:
            send_frame(conn, {
                "type": "registered",
                "heartbeat_seconds": self.heartbeat_seconds,
            })
        except (OSError, FrameError):
            self._reap(state, "connection lost")
            return
        self._info("fabric_worker_register", worker=name, pid=state.pid)
        reconnects = hello.get("reconnects") or 0
        if reconnects:
            # The worker redialled after losing us: surface the
            # recovery on the supervision stream.
            self._info("worker_reconnected", worker=name,
                       reconnects=reconnects)

    @staticmethod
    def _reject(conn, reason):
        try:
            send_frame(conn, {"type": "reject", "reason": reason})
        except (OSError, FrameError):
            pass
        conn.close()

    def _read(self, state):
        """Read and act on one frame from a registered worker."""
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
        elif kind == "goodbye":
            state.clean_exit = True
            self._reap(state, "clean exit")

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
        version = message.get("journal_version")
        if version != self.journal_version:
            self._counters["version_skew"] += 1
            self._info("fabric_version_skew", worker=state.name,
                       shard=ticket, got=version,
                       want=self.journal_version)
            self._events.append(ShardEvent(
                "failed", ticket=ticket,
                reason=(f"fragment version skew: worker {state.name} "
                        f"sent journal v{version}, want "
                        f"v{self.journal_version}"),
            ))
            return
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
        """A worker is gone: drop its connection and reclaim its shard,
        charged with ``charge`` (default: the death) — the dispatch was
        solo, so the culprit is unambiguous.

        A dead loopback worker is SIGKILLed here — it may be hung in a
        shard, and it may have inherited a SIGTERM handler from the
        process that forked it — and re-forked under the same name at
        the next drain; its replacement is one ``backend_lost``.
        """
        state.alive = False
        del self._connections[state.conn]
        state.conn.close()
        assignment = self._assignments.pop(state.name, None)
        if not state.clean_exit:
            self._counters["worker_deaths"] += 1
            self._info("fabric_worker_dead", worker=state.name,
                       reason=reason)
            process = self._processes.get(state.name)
            if process is not None:
                process.kill()
                process.join(timeout=5.0)
                self._replace.append(state.name)
                self._events.append(ShardEvent(
                    "backend_lost", reason=reason,
                    fields={"worker": state.name},
                ))
        if assignment is not None:
            self._counters["requeues"] += 1
            self._events.append(ShardEvent(
                "failed", ticket=assignment[0],
                reason=charge or f"worker died: {state.name} ({reason})",
            ))

    def _check_clocks(self):
        now = time.monotonic()
        for name, (_ticket, deadline, _t0) in list(
                self._assignments.items()):
            state = self._workers[name]
            if deadline is not None and now >= deadline:
                # Heartbeats prove liveness, not progress: drop the
                # worker stuck on the shard (closing the connection is
                # the only preemption there is).
                self._reap(state, "hang", charge=(
                    f"hang: exceeded {self.shard_timeout}s deadline"))
            elif now - state.last_seen > self.heartbeat_grace:
                # Heartbeats stopped: the worker process is dead even if
                # the TCP connection hasn't noticed yet.
                self._reap(state, "heartbeat lost")
        self._check_starvation(now)

    def _check_starvation(self, now):
        """Queued work with zero live workers cannot complete; after a
        grace period hand it all back so the supervisor can count a
        backend loss and, eventually, fall back to serial."""
        if not self._work or self._connections:
            self._starved_since = None
            return
        if self._starved_since is None:
            self._starved_since = now
            return
        if now - self._starved_since < self.worker_grace:
            return
        reclaimed = [ticket for ticket, _payload in self._work]
        self._work.clear()
        self._counters["requeues"] += len(reclaimed)
        self._starved_since = None
        self._events.append(ShardEvent(
            "backend_lost", reason="no-workers",
            fields={"reclaimed": reclaimed},
        ))
        for ticket in reclaimed:
            self._events.append(ShardEvent(
                "requeue", ticket=ticket, reason="no live workers",
            ))
