"""repro — Adaptive Security Support for Heterogeneous Memory on GPUs.

A trace-driven Python reproduction of the HPCA 2022 paper: a secure
GPU memory stack (counter-mode encryption, stateful MACs, Bonsai Merkle
Tree), the paper's adaptive mechanisms (read-only shared counter,
dual-granularity MACs, hardware detectors, L2 victim cache for
metadata), every baseline scheme it compares against, a synthetic
benchmark suite, and a harness regenerating each table and figure of
the evaluation.

Quick start::

    from repro import Runner, Scheme

    runner = Runner(scale=0.25)
    ipc = runner.normalized_ipc("fdtd2d", Scheme.SHM)
"""

from repro.common import (
    AddressMapper,
    DetectorConfig,
    GPUConfig,
    MDCConfig,
    Mechanism,
    MemorySpace,
    Scheme,
    SchemeConfig,
    SimConfig,
    required_mechanisms,
    scheme_config,
)
from repro.core import (
    MemoryEncryptionEngine,
    ReadOnlyDetector,
    SecureGPUContext,
    SecureMemoryDevice,
    StreamingDetector,
    VictimController,
)
from repro.eval import EnergyModel
from repro.sim import GPUSimulator, Runner, RunResult, TraceProfile
from repro.workloads import BENCHMARK_NAMES, Workload, WorkloadBuilder, build_suite

__version__ = "1.0.0"

__all__ = [
    "AddressMapper",
    "DetectorConfig",
    "GPUConfig",
    "MDCConfig",
    "Mechanism",
    "MemorySpace",
    "Scheme",
    "SchemeConfig",
    "SimConfig",
    "required_mechanisms",
    "scheme_config",
    "MemoryEncryptionEngine",
    "ReadOnlyDetector",
    "SecureGPUContext",
    "SecureMemoryDevice",
    "StreamingDetector",
    "VictimController",
    "EnergyModel",
    "GPUSimulator",
    "Runner",
    "RunResult",
    "TraceProfile",
    "BENCHMARK_NAMES",
    "Workload",
    "WorkloadBuilder",
    "build_suite",
    "__version__",
]
