"""Campaign-as-a-service: ``reprod``, the campaign service daemon.

The CLI runs one campaign per invocation and dies with its terminal.
This package turns the same campaign engine into a long-lived service:
an HTTP front end accepts campaign *specs* (JSON bodies naming the same
flags the ``campaign`` subcommand takes), a durable append-only queue
on disk absorbs them, and a scheduler loop drains the queue through
:class:`~repro.harness.campaign.ParallelCampaign` — every existing
execution mode (any worker count, pristine slots, adaptive slots,
sequential sampling) composes unchanged, because the daemon builds the
exact config the CLI would have built.

The robustness contract, in order of importance:

* **Crash safety** — every accepted spec and every state transition is
  fsync'd to the queue log before it is acknowledged; campaigns run
  against per-campaign journals with ``resume=True``.  SIGKILL the
  daemon at any instant, restart it on the same ``--home``, and it
  replays the queue, requeues whatever was in flight, resumes from the
  journal, and finishes with the *same* ``metrics_digest`` an
  uninterrupted run would have produced.
* **Admission control** — the queue is bounded; a submission past
  capacity is shed with a retryable 429 and a ``Retry-After`` hint
  instead of being silently absorbed into an unbounded backlog.
* **Graceful drain** — SIGTERM (or ``POST /drain``) stops admissions,
  lets the active campaign finish its in-flight shard round, journals
  it, and requeues the campaign for the next start.
* **Bounded retry** — a campaign that fails is retried with
  exponential backoff + jitter up to ``--max-attempts`` times, then
  marked failed with the error preserved.

Module map: :mod:`.queue` (durable spec queue), :mod:`.spec` (JSON spec
→ validated CLI namespace), :mod:`.daemon` (scheduler + recovery
orchestration), :mod:`.recovery` (restart replay), :mod:`.http` (the
stdlib HTTP front end).
"""

from repro.harness.service.daemon import (
    CampaignDaemon,
    ReportPending,
    ServiceDraining,
)
from repro.harness.service.http import make_server
from repro.harness.service.queue import QueueFull, SpecQueue
from repro.harness.service.recovery import recover_queue
from repro.harness.service.spec import SpecError, namespace_from_spec

__all__ = [
    "CampaignDaemon",
    "QueueFull",
    "ReportPending",
    "ServiceDraining",
    "SpecError",
    "SpecQueue",
    "make_server",
    "namespace_from_spec",
    "recover_queue",
    "serve",
]


def serve(args):
    """Entry point behind ``repro-bench serve``; returns an exit code.

    Runs the HTTP server on the calling thread; SIGTERM/SIGINT initiate
    a graceful drain (finish the active shard round, persist, refuse
    new work) and the process exits once the scheduler has stopped.
    """
    import signal
    import threading

    daemon = CampaignDaemon(
        args.home,
        queue_capacity=args.queue_capacity,
        campaign_budget=args.campaign_budget,
        retry_after=args.retry_after,
        max_attempts=args.max_attempts,
    )
    server = make_server(daemon, args.host, args.port)
    host, port = server.server_address[:2]
    daemon.start()
    print(f"reprod listening on http://{host}:{port} "
          f"(home {daemon.home})", flush=True)

    def _shutdown(_signum, _frame):
        daemon.drain()
        # serve_forever() must be stopped from another thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        daemon.drain()
        daemon.wait_drained()
        server.server_close()
        daemon.close()
    states = daemon.queue.state_counts()
    print("reprod drained: "
          + ", ".join(f"{state}={count}"
                      for state, count in sorted(states.items())),
          flush=True)
    return 0
