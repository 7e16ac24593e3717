"""OLTP case study — the methodology applied to a second domain.

The paper's abstract and conclusion state that the faultload methodology
"is not tied to any specific software vendor or platform [and] can be
used to generate faultloads for the evaluation of any software product
such as OLTP systems".  This package demonstrates exactly that: the same
OS builds, the same G-SWFIT faultloads and the same slot/watchdog harness
benchmark two *transactional database engines* instead of web servers.

* :class:`~repro.oltp.engines.WalnutDb` — a careful engine: write-ahead
  log, commit lock, periodic checkpoints, WAL replay on startup,
  supervised by a master (the "Apache" of the pair);
* :class:`~repro.oltp.engines.BreezyDb` — a fast-and-loose engine:
  write-back caching with no WAL, acknowledgements before durability,
  unchecked writes, unsupervised (the "Abyss");
* :class:`~repro.oltp.workload.OltpClient` — a TPC-style terminal
  driver that additionally audits **integrity**: it keeps the ledger of
  acknowledged transfers and counts durability violations when a
  post-recovery balance contradicts an acknowledged transaction;
* :class:`~repro.oltp.machine.OltpMachine` — engine, OS and terminals on
  one simulated machine.  The harness runs it through the same phases
  as a web server's (:class:`~repro.harness.experiment.WebServerExperiment`
  picks the machine from ``config.server_name``), and the faultload is
  fine-tuned by :class:`~repro.pipeline.FaultloadPipeline` with the
  engines as the profiled targets.

``repro oltp``, ``examples/oltp_benchmark.py`` and
``benchmarks/test_oltp_case_study.py`` run the comparison.
"""

from repro.oltp.engines import ENGINES, BreezyDb, WalnutDb, create_engine
from repro.oltp.workload import (
    OltpClient,
    OltpClientConfig,
    OltpMetrics,
    OltpPartial,
    Transaction,
    TxnResult,
)
from repro.oltp.machine import OltpMachine

__all__ = [
    "BreezyDb",
    "ENGINES",
    "OltpClient",
    "OltpClientConfig",
    "OltpMachine",
    "OltpMetrics",
    "OltpPartial",
    "Transaction",
    "TxnResult",
    "WalnutDb",
    "create_engine",
]
