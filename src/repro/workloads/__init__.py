"""Synthetic benchmark workloads.

The paper evaluates on job mixes drawn from BigBench, TPC-DS, TPC-H and a
Facebook production trace, assigning jobs to random datacenter pairs,
production-like release times, and weights uniform in [1, 100]
(Section 6, "Workloads").  The raw traces are not redistributable, so this
package generates *synthetic* workloads whose statistical shape follows the
published characterisations of those benchmarks: per-coflow width (number of
flows), heavy-tailed transfer sizes, and Poisson release processes.  The
relative behaviour of the scheduling algorithms — which is what the paper's
figures compare — is driven by exactly these shape parameters.
"""

from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    WorkloadProfile,
    bigbench_profile,
    facebook_profile,
    get_profile,
    tpcds_profile,
    tpch_profile,
)
from repro.workloads.generator import (
    WorkloadSpec,
    generate_coflows,
    generate_instance,
    random_instance,
)
from repro.workloads.traces import (
    TraceValidationError,
    load_instance,
    load_trace,
    save_trace,
    validate_trace_order,
)
from repro.workloads.fbtrace import convert_facebook_trace, parse_facebook_trace
from repro.workloads.analysis import (
    WorkloadStats,
    compare_profiles,
    estimated_network_load,
    workload_stats,
)

__all__ = [
    "WorkloadStats",
    "workload_stats",
    "estimated_network_load",
    "compare_profiles",
    "WorkloadProfile",
    "BENCHMARK_NAMES",
    "bigbench_profile",
    "tpcds_profile",
    "tpch_profile",
    "facebook_profile",
    "get_profile",
    "WorkloadSpec",
    "generate_coflows",
    "generate_instance",
    "random_instance",
    "save_trace",
    "load_instance",
    "load_trace",
    "TraceValidationError",
    "validate_trace_order",
    "parse_facebook_trace",
    "convert_facebook_trace",
]
