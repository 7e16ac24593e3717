"""The end-to-end faultload-definition pipeline (the paper's methodology).

``build_tuned_faultload`` chains the three steps of Section 2:

1. scan the OS build with the G-SWFIT operator library (fault locations);
2. profile every benchmark target of the category under the benchmark
   workload and select the API functions all of them rely on;
3. restrict the faultload to those functions.

The result is the generic, domain-specific faultload the dependability
benchmark consumes — one per OS build, shared by every benchmark target.
"""

from repro.gswfit.scanner import scan_build
from repro.harness.experiment import profile_servers
from repro.ossim.builds import get_build
from repro.profiling.finetune import tuned_faultload
from repro.profiling.usage import UsageTable
from repro.webservers.registry import PROFILING_SERVERS

__all__ = ["FaultloadPipeline", "build_tuned_faultload"]


class FaultloadPipeline:
    """Stepwise faultload definition with inspectable intermediates."""

    def __init__(self, config, servers=PROFILING_SERVERS,
                 profile_seconds=None):
        self.config = config
        self.servers = list(servers)
        self.profile_seconds = profile_seconds
        self.build = get_build(config.os_codename)
        self.raw_faultload = None
        self.tracers = None
        self.usage_table = None
        self.tuned = None

    def scan(self):
        """Step 1: G-SWFIT scanning of the OS build."""
        self.raw_faultload = scan_build(self.build)
        return self.raw_faultload

    def profile(self):
        """Step 2: trace API usage of every target under the workload."""
        self.tracers = profile_servers(
            self.config, self.servers, seconds=self.profile_seconds
        )
        self.usage_table = UsageTable.from_tracers(self.tracers)
        return self.usage_table

    def tune(self):
        """Step 3: restrict the faultload to the selected function set."""
        if self.raw_faultload is None:
            self.scan()
        if self.usage_table is None:
            self.profile()
        self.tuned = tuned_faultload(
            self.raw_faultload,
            self.usage_table.selected_function_names(),
            self.build,
        )
        return self.tuned

    def run(self):
        """All three steps; returns the tuned faultload."""
        return self.tune()


def build_tuned_faultload(config, servers=PROFILING_SERVERS,
                          profile_seconds=None):
    """One-call version of the methodology; returns the tuned faultload."""
    pipeline = FaultloadPipeline(
        config, servers=servers, profile_seconds=profile_seconds
    )
    return pipeline.run()
