"""Profiling and faultload fine-tuning.

Implements Section 2.4 / 3.3 of the paper: trace the OS API calls each
benchmark target makes under the benchmark workload, keep the functions
that (a) every target of the category uses and (b) carry a non-negligible
share of the calls, and restrict the faultload to locations inside that
function set.  The selection maximizes fault activation while keeping the
experiment time bounded, and using the *intersection* across targets keeps
the benchmark fair.
"""

from repro.profiling.tracer import ApiCallTracer
from repro.profiling.usage import UsageRow, UsageTable
from repro.profiling.finetune import tuned_faultload

__all__ = [
    "ApiCallTracer",
    "UsageRow",
    "UsageTable",
    "tuned_faultload",
]
