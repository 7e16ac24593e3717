"""The fabric worker: steal a shard, run it, ship the fragment back.

A worker is one process with one TCP connection.  Its loop is dumb on
purpose — register, then steal/run/report until the coordinator says
``shutdown`` or the connection dies.  All supervision intelligence
(deadlines, retries, quarantine) lives on the coordinator side; the
worker's only obligations are to heartbeat while a shard is running (so
a *hang* is distinguishable from a *death*) and to tag every result
with the journal version it was built against (so a skewed worker's
fragments are rejected instead of merged).

The result payload is ``outcome.to_dict()`` — the exact record the
campaign journal writes — so the wire contract inherits the journal's
round-trip guarantees and the merged campaign stays byte-digest-
identical to a serial run.

``chaos_kill_after_assignments`` is the CI fault injector for the
fault injector: the worker SIGKILLs itself on receiving its Nth
assignment, exercising the death/requeue path in a real campaign.

**Reconnects**: a dropped socket (or an unreachable coordinator at
start-up) used to kill the worker outright, which turns every
coordinator blip into a fleet restart.  ``max_reconnects`` bounds a
redial loop with exponential backoff + deterministic jitter
(:class:`~repro.harness.backoff.BackoffPolicy`; tests pin the schedule
through the ``_sleep`` hook).  A re-registration carries the attempt
count, which the coordinator surfaces as a ``worker_reconnected``
telemetry event; a clean ``shutdown``/``reject`` never redials.
"""

import base64
import os
import pickle
import signal
import socket
import threading

from repro.harness.backoff import BackoffPolicy
from repro.harness.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    recv_frame,
    send_frame,
)

__all__ = ["FabricWorker"]


class FabricWorker:
    """One worker process's connection to a fabric coordinator."""

    def __init__(self, host, port, *, name=None, journal_version=None,
                 chaos_kill_after_assignments=None, max_reconnects=0,
                 backoff=None):
        if journal_version is None:
            # The version this worker's checkout writes; imported lazily
            # so a skewed test double can override it.
            from repro.harness.campaign import JOURNAL_VERSION
            journal_version = JOURNAL_VERSION
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.journal_version = journal_version
        self.chaos_kill_after_assignments = chaos_kill_after_assignments
        self.max_reconnects = int(max_reconnects)
        # Seed the jitter per worker name so a redialling fleet spreads
        # apart instead of thundering back in lockstep.
        self.backoff = backoff or BackoffPolicy(
            base=0.2, factor=2.0, max_delay=5.0, jitter=0.5,
            seed=self.name,
        )
        self.reconnects = 0
        self._assignments = 0
        self._send_lock = threading.Lock()

    def _send(self, sock, message):
        with self._send_lock:
            send_frame(sock, message)

    def run(self):
        """Serve until shutdown/rejection, or until the reconnect
        budget is spent on a coordinator that keeps vanishing.

        Returns the total number of shards completed across every
        connection (0 also on rejection).
        """
        completed = 0
        while True:
            try:
                done, redial = self._session()
            except (OSError, FrameError):
                done, redial = 0, True
            completed += done
            if not redial or self.reconnects >= self.max_reconnects:
                return completed
            self.reconnects += 1
            _sleep(self.backoff.delay(self.reconnects))

    def _session(self):
        """One connection's lifetime; returns (completed, redial?)."""
        completed = 0
        with socket.create_connection((self.host, self.port)) as conn:
            # A result frame is followed at once by the next steal; with
            # Nagle on, the steal waits for the coordinator's delayed
            # ACK (40 ms on Linux) on every shard.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._send(conn, {
                "type": "register",
                "name": self.name,
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "protocol": PROTOCOL_VERSION,
                "journal_version": self.journal_version,
                "reconnects": self.reconnects,
            })
            ack = recv_frame(conn)
            if not isinstance(ack, dict) or ack.get("type") != "registered":
                return completed, False
            heartbeat_seconds = float(ack.get("heartbeat_seconds", 0.5))
            while True:
                try:
                    self._send(conn, {"type": "steal"})
                    message = recv_frame(conn)
                except (OSError, FrameError):
                    return completed, True
                if message is None:
                    return completed, True
                kind = message.get("type")
                if kind == "shutdown":
                    try:
                        self._send(conn, {"type": "goodbye"})
                    except (OSError, FrameError):
                        pass
                    return completed, False
                if kind == "wait":
                    _sleep(float(message.get("seconds", 0.05)))
                    continue
                if kind != "assign":
                    continue
                self._assignments += 1
                if (self.chaos_kill_after_assignments is not None
                        and self._assignments
                        >= self.chaos_kill_after_assignments):
                    # CI chaos mode: die like a real worker dies — no
                    # goodbye, no cleanup, mid-assignment.
                    os.kill(os.getpid(), signal.SIGKILL)
                completed += self._run_assignment(
                    conn, message, heartbeat_seconds)

    def _run_assignment(self, conn, message, heartbeat_seconds):
        ticket = message.get("ticket")
        stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(conn, stop, heartbeat_seconds),
            name="fabric-heartbeat", daemon=True)
        heartbeat.start()
        try:
            task, shard = pickle.loads(
                base64.b64decode(message["payload"]))
            outcome = task(shard)
        except BaseException as exception:  # noqa: BLE001 — report, don't die
            stop.set()
            heartbeat.join()
            try:
                self._send(conn, {
                    "type": "error",
                    "ticket": ticket,
                    "error": repr(exception),
                })
            except (OSError, FrameError):
                pass
            return 0
        stop.set()
        heartbeat.join()
        payload = (outcome.to_dict()
                   if hasattr(outcome, "to_dict") else outcome)
        self._send(conn, {
            "type": "result",
            "ticket": ticket,
            "journal_version": self.journal_version,
            "outcome": payload,
        })
        return 1

    def _heartbeat_loop(self, conn, stop, interval):
        while not stop.wait(interval):
            try:
                self._send(conn, {"type": "heartbeat"})
            except (OSError, FrameError):
                return


def _sleep(seconds):
    # time.sleep via an Event so tests can monkeypatch trivially.
    threading.Event().wait(seconds)
