"""Additional fault models — the paper's sketched "full benchmark".

The conclusion of the paper: "a full dependability benchmark for
web-servers can be defined by adding more fault models (hardware faults,
operator faults, etc.) and measures".  This package adds those two fault
classes as *state-level* faults that plug into the same slot/watchdog
harness the software faultload uses:

* hardware faults (:mod:`repro.extensions.statefaults`):
  heap-metadata corruption (a flipped bit in allocator bookkeeping),
  disk read-error bursts (corrupted sector content), stale-handle faults;
* operator faults: a mistaken ``kill`` of the server process, removal of
  the server's configuration file, a full log volume.

A faultload of state faults runs through the same
:class:`~repro.harness.campaign.ParallelCampaign` as a software one —
one campaign per fault class, each with its manifest and metrics
digest — and reports the same SPC/THR/RTM/ER%/MIS/KNS/KCP measures
(``benchmarks/test_extension_fault_models.py``).
"""

from repro.extensions.statefaults import (
    ConfigFileRemoval,
    DiskReadErrorBurst,
    HeapMetadataCorruption,
    LogVolumeFull,
    MistakenProcessKill,
    StaleHandleFault,
    StateFault,
    StateFaultInjector,
    class_faultload,
    standard_extension_faultload,
)

__all__ = [
    "ConfigFileRemoval",
    "DiskReadErrorBurst",
    "HeapMetadataCorruption",
    "LogVolumeFull",
    "MistakenProcessKill",
    "StaleHandleFault",
    "StateFault",
    "StateFaultInjector",
    "class_faultload",
    "standard_extension_faultload",
]
