"""The fabric worker: steal a shard, run it, ship the fragment back.

A worker is one forked process holding one end of a socket pair; its
coordinator holds the other.  Its loop is dumb on purpose — steal,
run, report until the coordinator says ``shutdown`` or the socket dies.
A worker never redials: once its coordinator's end closes (the
campaign finished, or its process was killed) the next read is EOF and
the worker exits instead of outliving it.  All supervision
intelligence (deadlines, retries, quarantine) lives on the coordinator
side; the worker's only obligation is to heartbeat while a shard is
running, so a *hang* is distinguishable from a *death*.

The result payload is ``outcome.to_dict()`` — the exact record the
campaign journal writes — so the wire contract inherits the journal's
round-trip guarantees and the merged campaign stays byte-digest-
identical to a serial run.

``chaos_kill_after_assignments`` is the CI fault injector for the
fault injector: the worker SIGKILLs itself on receiving its Nth
assignment, exercising the death/requeue path in a real campaign.
"""

import base64
import os
import pickle
import signal
import threading
import time

from repro.harness.fabric.protocol import FrameError, recv_frame, send_frame

__all__ = ["FabricWorker"]


class FabricWorker:
    """One worker process's end of its socket pair to the coordinator."""

    def __init__(self, conn, *, heartbeat_seconds,
                 chaos_kill_after_assignments=None):
        self.conn = conn
        self.heartbeat_seconds = heartbeat_seconds
        self.chaos_kill_after_assignments = chaos_kill_after_assignments
        self._assignments = 0
        self._send_lock = threading.Lock()

    def _send(self, message):
        with self._send_lock:
            send_frame(self.conn, message)

    def run(self):
        """Steal, run and report until the coordinator says
        ``shutdown`` or its end of the socket closes."""
        with self.conn:
            try:
                self._serve()
            except (OSError, FrameError):
                pass  # the coordinator is gone

    def _serve(self):
        while True:
            self._send({"type": "steal"})
            message = recv_frame(self.conn)
            if message is None:
                return
            kind = message.get("type")
            if kind == "shutdown":
                return
            if kind == "wait":
                time.sleep(float(message.get("seconds", 0.05)))
                continue
            if kind != "assign":
                continue
            self._assignments += 1
            if (self.chaos_kill_after_assignments is not None
                    and self._assignments
                    >= self.chaos_kill_after_assignments):
                # CI chaos mode: die like a real worker dies — no
                # cleanup, mid-assignment.
                os.kill(os.getpid(), signal.SIGKILL)
            self._run_assignment(message)

    def _run_assignment(self, message):
        ticket = message.get("ticket")
        stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(stop,),
            name="fabric-heartbeat", daemon=True)
        heartbeat.start()
        try:
            task, shard = pickle.loads(
                base64.b64decode(message["payload"]))
            outcome = task(shard)
        except BaseException as exception:  # noqa: BLE001 — report, don't die
            stop.set()
            heartbeat.join()
            self._send({
                "type": "error",
                "ticket": ticket,
                "error": repr(exception),
            })
            return
        stop.set()
        heartbeat.join()
        payload = (outcome.to_dict()
                   if hasattr(outcome, "to_dict") else outcome)
        self._send({"type": "result", "ticket": ticket, "outcome": payload})

    def _heartbeat_loop(self, stop):
        while not stop.wait(self.heartbeat_seconds):
            try:
                self._send({"type": "heartbeat"})
            except (OSError, FrameError):
                return
