"""The supervisor-facing face of the fabric.

:class:`FabricExecutorBackend` adapts a :class:`.FabricCoordinator` to
the five calls :class:`~repro.harness.supervisor.ShardSupervisor`
makes::

    submit_shard(ticket, shard, task)           # queue one shard
    drain(timeout)     -> list[ShardEvent]      # what happened since
    withdraw()         -> list[ShardEvent]      # unqueue unstarted shards
    shutdown()                                  # release everything
    stats()            -> dict                  # manifest `fabric` block

Two deployment shapes share it, and combine:

* **loopback** — the backend forks N local worker processes itself
  (``multiprocessing.Process`` running :class:`.FabricWorker`); this is
  what ``--workers N`` runs.  Workers are forked after the campaign
  warms the mutant cache, so they inherit the warm cache.  A loopback
  worker the coordinator reports dead — killed, or dropped for a hang —
  is killed outright (a hung one would otherwise run on) and re-forked
  under the same name at the next drain, and each such replacement is
  one ``backend_lost`` event: one charge against the supervisor's
  rebuild budget.
* **listen** — the backend binds a caller-chosen address and waits for
  external ``repro campaign-worker host:port`` processes to register;
  those are never respawned (they are not ours to fork).

The coordinator queues everything and workers *pull*, so the per-shard
deadline clock starts at assignment (steal) time, not submit time — a
shard is never charged for time spent waiting on a busy fabric.

Result fragments arrive as journal-record dicts; ``decoder`` (the campaign
passes ``ShardOutcome.from_dict``) rebuilds the outcome object before
the supervisor sees it, and a fragment the decoder rejects is converted
to a charged failure rather than poisoning the merge.
"""

import multiprocessing
import os

from repro.harness.fabric.coordinator import FabricCoordinator, ShardEvent

__all__ = ["FabricExecutorBackend", "CHAOS_KILL_ENV"]

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
        self._journal_version = journal_version
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
        coordinator_host, coordinator_port = self.address
        self._connect = (
            "127.0.0.1" if coordinator_host in ("0.0.0.0", "::")
            else coordinator_host,
            coordinator_port,
        )
        self._processes = {}  # loopback worker name -> Process
        self._replace = []    # names killed, to re-fork at next drain
        for index in range(loopback_workers):
            self._fork(f"loopback-{index}",
                       chaos_kill_after if index == 0 else None)
        # Threads only now: fork() in a threaded process may deadlock
        # the child (Python 3.12 warns).  A re-fork after a worker death
        # (:meth:`drain`) still forks the threaded coordinator process.
        self._coordinator.start()

    def _fork(self, name, chaos_kill_after=None):
        process = multiprocessing.Process(
            target=_loopback_worker_main,
            args=(*self._connect, name, self._journal_version,
                  chaos_kill_after),
            name=f"fabric-{name}",
            daemon=True,
        )
        process.start()
        self._processes[name] = process

    def _retire(self, name):
        """Kill a loopback worker the coordinator has reported dead.

        The report is what frees the name for the replacement to
        register under.  SIGKILL, not SIGTERM: the worker may be hung
        in a shard, and it may have inherited a SIGTERM handler from
        the process that forked it.  The replacement is forked at the
        next drain, once the supervisor has seen the loss and had its
        chance to withdraw the queue.
        """
        process = self._processes[name]
        process.kill()
        process.join(timeout=5.0)
        self._replace.append(name)

    # ------------------------------------------------------------------
    # Executor backend interface
    # ------------------------------------------------------------------
    def submit_shard(self, ticket, shard, task):
        self._coordinator.submit(ticket, shard, task)

    def drain(self, timeout):
        for name in self._replace:
            self._fork(name)
        self._replace = []
        events = []
        for event in self._coordinator.drain(timeout):
            if event.kind == "done" and self._decoder is not None:
                try:
                    event.outcome = self._decoder(event.outcome)
                except Exception as exception:  # noqa: BLE001
                    event = ShardEvent(
                        "failed", ticket=event.ticket,
                        reason=f"undecodable fragment: {exception!r}",
                    )
            events.append(event)
            if (event.event == "fabric_worker_dead"
                    and event.fields["worker"] in self._processes):
                name = event.fields["worker"]
                self._retire(name)
                events.append(ShardEvent(
                    "backend_lost", reason=event.fields["reason"],
                    fields={"worker": name},
                ))
        return events

    def withdraw(self):
        """Requeue events for every shard no worker has started, so
        only the assigned ones finish here."""
        return [
            ShardEvent("requeue", ticket=ticket, reason="withdrawn")
            for ticket in self._coordinator.withdraw()
        ]

    def shutdown(self):
        self._coordinator.stop()
        for process in self._processes.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        self._processes = {}

    def stats(self):
        summary = self._coordinator.stats()
        summary["loopback_workers"] = len(self._processes)
        return summary
