"""Workload substrate: pattern generators, builders, the benchmark suite."""

from repro.workloads.base import (
    ALLOC_ALIGN,
    Buffer,
    HostEvent,
    Kernel,
    Trace,
    Workload,
    WorkloadBuilder,
)
from repro.workloads.compose import (
    PRIMITIVES,
    Composer,
    SpecError,
    build_workload,
    describe,
    load_spec,
    step,
    validate_spec,
)
from repro.workloads.extended import EXTENDED, EXTENDED_NAMES, build_extended
from repro.workloads.multitenant import (
    TEMPLATES,
    build_multi_tenant,
    contention_spec,
    phase_churn_spec,
)
from repro.workloads.patterns import warp_accesses
from repro.workloads.suite import BENCHMARK_NAMES, BENCHMARKS, build, build_suite
from repro.workloads.trace_io import (
    TraceFormatError,
    iter_kernels,
    load_workload,
    save_workload,
    trace_info,
)

__all__ = [
    "ALLOC_ALIGN",
    "Buffer",
    "HostEvent",
    "Kernel",
    "Trace",
    "Workload",
    "WorkloadBuilder",
    "BENCHMARK_NAMES",
    "BENCHMARKS",
    "build",
    "build_suite",
    "EXTENDED",
    "EXTENDED_NAMES",
    "build_extended",
    "warp_accesses",
    "PRIMITIVES",
    "Composer",
    "SpecError",
    "build_workload",
    "describe",
    "load_spec",
    "step",
    "validate_spec",
    "TEMPLATES",
    "build_multi_tenant",
    "contention_spec",
    "phase_churn_spec",
    "TraceFormatError",
    "iter_kernels",
    "load_workload",
    "save_workload",
    "trace_info",
]
