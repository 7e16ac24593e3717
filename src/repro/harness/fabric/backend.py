"""The supervisor-facing face of the fabric.

:class:`FabricExecutorBackend` adapts a :class:`.FabricCoordinator` to
the executor-backend interface of :mod:`repro.harness.executors`.  Two
deployment shapes share it:

* **loopback** — the backend spawns N local worker processes itself
  (``multiprocessing.Process`` running :class:`.FabricWorker`); this is
  single-machine scale-out with the full wire protocol in the loop, and
  what the parity harness's fabric rows exercise.  Workers are forked
  after the campaign warms the mutant cache, so they inherit the warm
  cache exactly like pool workers do.
* **listen** — the backend binds a caller-chosen address and waits for
  external ``repro campaign-worker host:port`` processes to register;
  nothing is spawned locally (loopback workers may still be added on
  top).

``can_accept`` is always true: the coordinator queues everything and
workers *pull*, so admission control is the queue and the per-shard
deadline clock starts at assignment (steal) time, not submit time — a
shard is never charged for time spent waiting on a busy fabric.

Result fragments arrive as journal-v5 dicts; ``decoder`` (the campaign
passes ``ShardOutcome.from_dict``) rebuilds the outcome object before
the supervisor sees it, and a fragment the decoder rejects is converted
to a charged failure rather than poisoning the merge.
"""

import multiprocessing
import os

from repro.harness.executors import ShardEvent
from repro.harness.fabric.coordinator import FabricCoordinator

__all__ = ["FabricExecutorBackend", "CHAOS_KILL_ENV"]

# CI chaos hook: when set to N, loopback worker 0 SIGKILLs itself on its
# Nth assignment (see FabricWorker.chaos_kill_after_assignments).
CHAOS_KILL_ENV = "REPRO_FABRIC_CHAOS_KILL_AFTER"


def _loopback_worker_main(host, port, index, journal_version,
                          chaos_kill_after):
    from repro.harness.fabric.worker import FabricWorker
    FabricWorker(
        host, port,
        name=f"loopback-{index}",
        journal_version=journal_version,
        chaos_kill_after_assignments=chaos_kill_after,
    ).run()


class FabricExecutorBackend:
    """Executor backend dispatching through a fabric coordinator."""

    def __init__(self, *, loopback_workers=0, listen=None,
                 shard_timeout=None, heartbeat_seconds=0.5,
                 worker_grace=None, journal_version=None,
                 decoder=None, chaos_kill_after=None):
        if journal_version is None:
            from repro.harness.campaign import JOURNAL_VERSION
            journal_version = JOURNAL_VERSION
        if loopback_workers <= 0 and listen is None:
            raise ValueError(
                "fabric backend needs loopback workers, a listen "
                "address, or both"
            )
        host, port = listen if listen is not None else ("127.0.0.1", 0)
        kwargs = {}
        if worker_grace is not None:
            kwargs["worker_grace"] = worker_grace
        self._decoder = decoder
        self._coordinator = FabricCoordinator(
            host, port,
            shard_timeout=shard_timeout,
            heartbeat_seconds=heartbeat_seconds,
            journal_version=journal_version,
            **kwargs,
        )
        self.address = self._coordinator.address
        if chaos_kill_after is None:
            chaos_env = os.environ.get(CHAOS_KILL_ENV)
            if chaos_env:
                chaos_kill_after = int(chaos_env)
        self._processes = []
        coordinator_host, coordinator_port = self.address
        connect_host = ("127.0.0.1"
                        if coordinator_host in ("0.0.0.0", "::")
                        else coordinator_host)
        for index in range(loopback_workers):
            process = multiprocessing.Process(
                target=_loopback_worker_main,
                args=(connect_host, coordinator_port, index,
                      journal_version,
                      chaos_kill_after if index == 0 else None),
                name=f"fabric-loopback-{index}",
                daemon=True,
            )
            process.start()
            self._processes.append(process)

    # ------------------------------------------------------------------
    # Executor backend interface
    # ------------------------------------------------------------------
    def can_accept(self):
        return True

    def submit_shard(self, ticket, shard, task):
        self._coordinator.submit(ticket, shard, task)
        return []

    def drain(self, timeout):
        events = self._coordinator.drain(timeout)
        if self._decoder is None:
            return events
        decoded = []
        for event in events:
            if event.kind == "done":
                try:
                    event.outcome = self._decoder(event.outcome)
                except Exception as exception:  # noqa: BLE001
                    event = ShardEvent(
                        "failed", ticket=event.ticket,
                        reason=f"undecodable fragment: {exception!r}",
                    )
            decoded.append(event)
        return decoded

    def shutdown(self):
        self._coordinator.stop()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        self._processes = []

    def stats(self):
        summary = self._coordinator.stats()
        summary["loopback_workers"] = len(self._processes)
        return summary
