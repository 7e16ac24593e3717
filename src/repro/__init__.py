"""repro — generic faultloads based on software faults (DSN 2004).

A full reproduction of Durães & Madeira's dependability-benchmarking
methodology: a G-SWFIT-style mutation engine over a simulated operating
system, four web servers as benchmark targets, a SPECWeb99-like workload,
and the harness that regenerates every table and figure of the paper.

Quickstart::

    from repro import ExperimentConfig
    from repro.harness import ParallelCampaign

    config = ExperimentConfig.scaled(server_name="apache",
                                     os_codename="nt50")
    campaign = ParallelCampaign(config)
    result = campaign.run()
    print(result.average_row())
    print(campaign.manifest.metrics_digest)

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the system
inventory.
"""

from repro._version import __version__
from repro.faults import (
    FaultLocation,
    FaultType,
    Faultload,
    fault_type_info,
    iter_fault_types,
)
from repro.gswfit import (
    FaultInjector,
    FitBoundaryError,
    scan_build,
    scan_function,
    scan_module,
)
from repro.harness import (
    BenchmarkResult,
    DependabilityMetrics,
    ExperimentConfig,
    ServerMachine,
    Watchdog,
    WebServerExperiment,
)
from repro.harness.experiment import profile_servers
from repro.ossim import NT50, NT51, get_build
from repro.pipeline import FaultloadPipeline, build_tuned_faultload
from repro.profiling import ApiCallTracer, UsageTable
from repro.specweb import RunRules, SpecWebFileset
from repro.webservers import (
    BENCHMARKED_SERVERS,
    PROFILING_SERVERS,
    create_server,
)

__all__ = [
    "ApiCallTracer",
    "BENCHMARKED_SERVERS",
    "BenchmarkResult",
    "DependabilityMetrics",
    "ExperimentConfig",
    "FaultInjector",
    "FaultLocation",
    "FaultType",
    "Faultload",
    "FaultloadPipeline",
    "FitBoundaryError",
    "NT50",
    "NT51",
    "PROFILING_SERVERS",
    "RunRules",
    "ServerMachine",
    "SpecWebFileset",
    "UsageTable",
    "Watchdog",
    "WebServerExperiment",
    "__version__",
    "build_tuned_faultload",
    "create_server",
    "fault_type_info",
    "get_build",
    "iter_fault_types",
    "profile_servers",
    "scan_build",
    "scan_function",
    "scan_module",
]
