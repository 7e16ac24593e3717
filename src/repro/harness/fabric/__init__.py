"""Socket-pair coordinator/worker campaign fabric: the multi-worker
backend.

Every campaign with more than one worker runs through this package: a
coordinator (:mod:`.coordinator`) forks its workers, each on one end of
a ``socket.socketpair()``, hands out shards via pull-based work
stealing, and watches heartbeats against per-shard wall-clock
deadlines; a worker (:mod:`.worker`) steals shards, runs them, and
ships :class:`~repro.harness.campaign.ShardOutcome` fragments back over
length-prefixed JSON frames (:mod:`.protocol`).  The supervisor drives
it all through the coordinator, which also replaces any worker that
dies.  The coordinator runs no thread: it serves every socket inside
its ``drain`` call, on the supervisor's own thread, so a worker is
never forked from a threaded process.  What the fabric learns reaches
the supervisor as :class:`ShardEvent` records.

The wire contract *is* the journal record format: a result frame
carries exactly the dict :meth:`ShardOutcome.to_dict` writes into the
journal.  Because the campaign's merge is exactly-once and
order-independent, an N-worker campaign is byte-digest-identical to a
serial run, even with a worker killed mid-campaign
(``tests/harness/test_parity.py``).
"""

from repro.harness.fabric.coordinator import FabricCoordinator, ShardEvent
from repro.harness.fabric.protocol import FrameError, recv_frame, send_frame
from repro.harness.fabric.worker import FabricWorker

__all__ = [
    "FabricCoordinator",
    "FabricWorker",
    "FrameError",
    "ShardEvent",
    "recv_frame",
    "send_frame",
]
