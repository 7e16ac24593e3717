"""The fabric coordinator: a TCP shard queue with supervision.

The coordinator owns a listening socket and three kinds of thread: an
accept loop, one handler per connected worker, and a monitor.  Workers
*pull* work ("steal" messages) rather than being pushed it, so a slow
worker naturally takes fewer shards and a dead one takes none — the
scheduling is load-driven without the coordinator modelling worker
speed at all.

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
worker), never merged.

Everything the coordinator's threads learn is funnelled to the
supervisor as :class:`ShardEvent` records through a thread-safe queue
drained from the supervisor's thread — the telemetry writer is
single-threaded by design, so the coordinator never emits telemetry
itself.
"""

import base64
import pickle
import queue
import select
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.harness.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)

__all__ = ["FabricCoordinator", "ShardEvent"]

# How long the work queue may sit non-empty with zero live workers
# before the coordinator gives the shards back to the supervisor (which
# counts it against the rebuild budget and eventually falls back to
# serial execution).
DEFAULT_WORKER_GRACE = 30.0
DEFAULT_HEARTBEAT_SECONDS = 0.5


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
    * ``info``         — telemetry only: emit ``event`` with ``fields``
      on the supervisor's stream (the coordinator's own threads must
      not write it).
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

    def __init__(self, host="127.0.0.1", port=0, *, shard_timeout=None,
                 heartbeat_seconds=DEFAULT_HEARTBEAT_SECONDS,
                 heartbeat_grace=None, journal_version,
                 worker_grace=DEFAULT_WORKER_GRACE):
        self.shard_timeout = shard_timeout
        self.heartbeat_seconds = heartbeat_seconds
        # A worker heartbeats every ``heartbeat_seconds`` while running;
        # missing several in a row means the process (or the network to
        # it) is gone, not merely slow.
        self.heartbeat_grace = (
            heartbeat_grace if heartbeat_grace is not None
            else max(heartbeat_seconds * 6, 2.0)
        )
        self.journal_version = journal_version
        self.worker_grace = worker_grace
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._events = queue.Queue()
        self._work = []              # [(ticket, payload_b64), ...] FIFO
        self._assignments = {}       # worker name -> (ticket, deadline, t0)
        self._workers = {}           # worker name -> _WorkerState
        self._counters = {
            "steals": 0, "requeues": 0, "heartbeats": 0,
            "worker_deaths": 0, "version_skew": 0, "results": 0,
        }
        self._starved_since = None
        self._stopping = False
        self._threads = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True)
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="fabric-monitor", daemon=True)

    def start(self):
        """Start accepting and monitoring workers.

        The constructor binds the listener and starts no thread, so a
        caller can fork its local workers first: they are forked from a
        process without threads, and the ones that connect before this
        call wait in the listen backlog.
        """
        self._accept_thread.start()
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Supervisor-facing surface (called from the supervisor's thread)
    # ------------------------------------------------------------------
    def submit(self, ticket, shard, task):
        payload = base64.b64encode(
            pickle.dumps((task, shard))).decode("ascii")
        with self._lock:
            self._work.append((ticket, payload))

    def drain(self, timeout):
        """Everything that happened since the last drain; blocks up to
        ``timeout`` for the first event."""
        events = []
        try:
            events.append(self._events.get(timeout=timeout))
        except queue.Empty:
            return events
        while True:
            try:
                events.append(self._events.get_nowait())
            except queue.Empty:
                return events

    def withdraw(self):
        """Take back every queued shard no worker has started; returns
        their tickets in queue order.  Assigned shards run on."""
        with self._lock:
            tickets = [ticket for ticket, _payload in self._work]
            self._work.clear()
        return tickets

    def stats(self):
        with self._lock:
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
        return summary

    def stop(self):
        self._stopping = True
        # On Linux, close() alone does not wake a thread blocked in
        # accept(); shutdown() does, so the accept loop exits now
        # instead of outliving the join deadline below.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            workers = list(self._workers.values())
        for state in workers:
            try:
                send_frame(state.conn, {"type": "shutdown"})
            except (OSError, FrameError):
                pass
        deadline = time.monotonic() + 2.0
        for thread in [self._accept_thread, self._monitor_thread,
                       *self._threads]:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for state in workers:
            try:
                state.conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Accept + handler threads
    # ------------------------------------------------------------------
    def _accept_loop(self):
        while not self._stopping:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            handler = threading.Thread(
                target=self._handle_worker, args=(conn,),
                name="fabric-handler", daemon=True)
            self._threads.append(handler)
            handler.start()

    def _handle_worker(self, conn):
        state = None
        reason = "connection lost"
        try:
            conn.settimeout(5.0)
            hello = recv_frame(conn)
            if (not isinstance(hello, dict)
                    or hello.get("type") != "register"
                    or hello.get("protocol") != PROTOCOL_VERSION):
                send_frame(conn, {
                    "type": "reject",
                    "reason": f"need register/protocol {PROTOCOL_VERSION}",
                })
                conn.close()
                return
            name = str(hello.get("name") or f"worker-{id(conn):x}")
            state = _WorkerState(
                name=name,
                pid=hello.get("pid"),
                host=hello.get("host", ""),
                conn=conn,
            )
            with self._lock:
                # A reconnecting name replaces its dead predecessor in
                # the roster; two *live* workers must not share one.
                previous = self._workers.get(name)
                if previous is not None and previous.alive:
                    send_frame(conn, {
                        "type": "reject",
                        "reason": f"worker name {name!r} already live",
                    })
                    conn.close()
                    return
                if previous is not None:
                    state.shards_done = previous.shards_done
                self._workers[name] = state
            send_frame(conn, {
                "type": "registered",
                "heartbeat_seconds": self.heartbeat_seconds,
            })
            self._events.put(ShardEvent(
                "info", event="fabric_worker_register",
                fields={"worker": name, "pid": state.pid},
            ))
            reconnects = hello.get("reconnects") or 0
            if reconnects:
                # The worker redialled after losing us: surface the
                # recovery on the supervision stream (the roster entry
                # was already swapped in above).
                self._events.put(ShardEvent(
                    "info", event="worker_reconnected",
                    fields={"worker": name, "reconnects": reconnects},
                ))
            reason = self._serve(state)
        except FrameError as exc:
            # A torn, oversized, or undecodable frame is a protocol
            # error, not a coordinator bug: drop the connection and let
            # the reap below requeue whatever the worker was carrying.
            reason = f"protocol error: {exc}"
        except OSError:
            pass
        finally:
            if state is not None:
                self._reap(state, reason=reason)
            try:
                conn.close()
            except OSError:
                pass

    def _serve(self, state):
        """Serve one worker's message loop; returns the reap reason."""
        conn = state.conn
        # Wait for readability with a short poll (so the stop flag is
        # observed), then read the whole frame under a generous timeout
        # — a mid-frame timeout would tear the stream.
        conn.settimeout(5.0)
        while not self._stopping and state.alive:
            try:
                ready, _, _ = select.select([conn], [], [], 0.2)
            except (OSError, ValueError):
                return "connection lost"
            if not ready:
                continue
            try:
                message = recv_frame(conn)
            except FrameError as exc:
                # Torn frame, corrupt length prefix, invalid JSON: a
                # clean protocol error.  The reap that follows requeues
                # the worker's in-flight shard — the read loop itself
                # must never die on bad bytes.
                self._events.put(ShardEvent(
                    "info", event="fabric_protocol_error",
                    fields={"worker": state.name, "error": str(exc)},
                ))
                return f"protocol error: {exc}"
            except OSError:
                return "connection lost"
            if message is None:
                return "connection lost"  # clean EOF
            state.last_seen = time.monotonic()
            kind = message.get("type")
            if kind == "steal":
                self._on_steal(state)
            elif kind == "heartbeat":
                with self._lock:
                    self._counters["heartbeats"] += 1
            elif kind == "result":
                self._on_result(state, message)
            elif kind == "error":
                self._on_error(state, message)
            elif kind == "goodbye":
                state.clean_exit = True
                return "clean exit"
        return "connection lost"

    # ------------------------------------------------------------------
    # Message handlers (run on handler threads; events go via the queue)
    # ------------------------------------------------------------------
    def _on_steal(self, state):
        with self._lock:
            if self._stopping:
                reply = {"type": "shutdown"}
                assignment = None
            elif not self._work:
                reply = {"type": "wait", "seconds": 0.05}
                assignment = None
            else:
                ticket, payload = self._work.pop(0)
                now = time.monotonic()
                deadline = (now + self.shard_timeout
                            if self.shard_timeout is not None else None)
                self._assignments[state.name] = (ticket, deadline, now)
                self._counters["steals"] += 1
                reply = {"type": "assign", "ticket": ticket,
                         "payload": payload}
                assignment = ticket
        try:
            send_frame(state.conn, reply)
        except (OSError, FrameError):
            # The worker vanished between steal and assign; the reap
            # path (via _serve's exit) reclaims the ticket.
            return
        if assignment is not None:
            self._events.put(ShardEvent(
                "info", event="fabric_steal",
                fields={"worker": state.name, "shard": assignment},
            ))

    def _on_result(self, state, message):
        ticket = message.get("ticket")
        with self._lock:
            assignment = self._assignments.get(state.name)
            if assignment is None or assignment[0] != ticket:
                return  # stale result for a ticket already reclaimed
            del self._assignments[state.name]
            self._counters["results"] += 1
            version = message.get("journal_version")
            skew = version != self.journal_version
            if skew:
                self._counters["version_skew"] += 1
            else:
                state.shards_done += 1
            started = assignment[2]
        if skew:
            self._events.put(ShardEvent(
                "info", event="fabric_version_skew",
                fields={"worker": state.name, "shard": ticket,
                        "got": version, "want": self.journal_version},
            ))
            self._events.put(ShardEvent(
                "failed", ticket=ticket,
                reason=(f"fragment version skew: worker {state.name} "
                        f"sent journal v{version}, want "
                        f"v{self.journal_version}"),
            ))
            return
        self._events.put(ShardEvent(
            "done", ticket=ticket, outcome=message.get("outcome"),
            seconds=time.monotonic() - started,
        ))

    def _on_error(self, state, message):
        ticket = message.get("ticket")
        with self._lock:
            assignment = self._assignments.get(state.name)
            if assignment is None or assignment[0] != ticket:
                return
            del self._assignments[state.name]
        self._events.put(ShardEvent(
            "failed", ticket=ticket,
            reason=f"crash: {message.get('error', 'unknown')}",
        ))

    # ------------------------------------------------------------------
    # Reaping + monitoring
    # ------------------------------------------------------------------
    def _reap(self, state, reason):
        """A worker is gone; reclaim its shard (charged — the dispatch
        was solo, so the culprit is unambiguous)."""
        with self._lock:
            if not state.alive:
                return
            state.alive = False
            assignment = self._assignments.pop(state.name, None)
            if not state.clean_exit:
                self._counters["worker_deaths"] += 1
            if assignment is not None:
                self._counters["requeues"] += 1
        if state.clean_exit and assignment is None:
            return
        if not state.clean_exit:
            self._events.put(ShardEvent(
                "info", event="fabric_worker_dead",
                fields={"worker": state.name, "reason": reason},
            ))
        if assignment is not None:
            self._events.put(ShardEvent(
                "failed", ticket=assignment[0],
                reason=f"worker died: {state.name} ({reason})",
            ))

    def _monitor_loop(self):
        while not self._stopping:
            time.sleep(0.1)
            now = time.monotonic()
            hung = []
            stale = []
            with self._lock:
                for name, (ticket, deadline, _t0) in list(
                        self._assignments.items()):
                    state = self._workers.get(name)
                    if state is None or not state.alive:
                        continue
                    if deadline is not None and now >= deadline:
                        hung.append((state, ticket))
                    elif now - state.last_seen > self.heartbeat_grace:
                        stale.append(state)
            for state, ticket in hung:
                self._kill_assignment(
                    state, ticket,
                    reason=(f"hang: exceeded {self.shard_timeout}s "
                            f"deadline"),
                )
            for state in stale:
                # Heartbeats stopped: the worker process is dead even if
                # the TCP connection hasn't noticed yet.
                state.clean_exit = False
                try:
                    state.conn.close()
                except OSError:
                    pass
                self._reap(state, reason="heartbeat lost")
            self._check_starvation()

    def _kill_assignment(self, state, ticket, reason):
        """Charge a hung shard and drop the worker that is stuck on it
        (closing the connection is the only preemption we have)."""
        with self._lock:
            assignment = self._assignments.get(state.name)
            if assignment is None or assignment[0] != ticket:
                return
            del self._assignments[state.name]
            state.alive = False
            self._counters["worker_deaths"] += 1
            self._counters["requeues"] += 1
        try:
            state.conn.close()
        except OSError:
            pass
        self._events.put(ShardEvent(
            "info", event="fabric_worker_dead",
            fields={"worker": state.name, "reason": "hang"},
        ))
        self._events.put(ShardEvent(
            "failed", ticket=ticket, reason=reason,
        ))

    def _check_starvation(self):
        """Queued work with zero live workers cannot complete; after a
        grace period hand it all back so the supervisor can count a
        backend loss and, eventually, fall back to serial."""
        with self._lock:
            starving = bool(self._work) and not any(
                s.alive for s in self._workers.values())
            if not starving:
                self._starved_since = None
                return
            if self._starved_since is None:
                self._starved_since = time.monotonic()
                return
            if time.monotonic() - self._starved_since < self.worker_grace:
                return
            reclaimed = [ticket for ticket, _payload in self._work]
            self._work.clear()
            self._counters["requeues"] += len(reclaimed)
            self._starved_since = None
        self._events.put(ShardEvent(
            "backend_lost", reason="no-workers",
            fields={"reclaimed": reclaimed},
        ))
        for ticket in reclaimed:
            self._events.put(ShardEvent(
                "requeue", ticket=ticket, reason="no live workers",
            ))
