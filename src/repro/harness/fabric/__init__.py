"""Socket coordinator/worker campaign fabric: the multi-worker backend.

Every campaign with more than one worker runs through this package: a
TCP coordinator (:mod:`.coordinator`) registers workers, hands out
shards via pull-based work stealing, and watches heartbeats against
per-shard wall-clock deadlines; a worker (:mod:`.worker`) is a plain
process — forked locally by ``--workers N``, or a ``campaign-worker``
on another machine — that steals shards, runs them, and ships
:class:`~repro.harness.campaign.ShardOutcome` fragments back over
length-prefixed JSON frames (:mod:`.protocol`).  The supervisor drives
it all through :class:`.backend.FabricExecutorBackend`, which forks the
local (loopback) workers and replaces any the coordinator reports dead.
What the fabric learns reaches the supervisor as :class:`ShardEvent`
records.

The wire contract *is* the journal record format: a result frame
carries exactly the dict :meth:`ShardOutcome.to_dict` writes into the
journal, tagged with the journal version so skewed workers are
rejected rather than silently merged.  Because the campaign's merge is
exactly-once and order-independent, an N-worker campaign is
byte-digest-identical to a serial run, even with a worker killed
mid-campaign (``tests/harness/test_parity.py``).
"""

from repro.harness.fabric.backend import FabricExecutorBackend
from repro.harness.fabric.coordinator import FabricCoordinator, ShardEvent
from repro.harness.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.harness.fabric.worker import FabricWorker

__all__ = [
    "PROTOCOL_VERSION",
    "FabricCoordinator",
    "FabricExecutorBackend",
    "FabricWorker",
    "FrameError",
    "ShardEvent",
    "parse_address",
    "recv_frame",
    "send_frame",
]
