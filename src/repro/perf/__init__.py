"""Performance observability: host-time profiling and benchmarking.

Where :mod:`repro.obs` observes *simulated* cycles, this package
observes the simulator itself — host time per simulator layer from an
out-of-band stack sampler (:mod:`repro.perf.hostprof`), a pinned
micro+macro benchmark matrix with robust statistics
(:mod:`repro.perf.bench`), the ``BENCH_*.json`` schema
(:mod:`repro.perf.schema`) and baseline comparison with a regression
gate (:mod:`repro.perf.compare`).
"""

from repro.perf.hostprof import (
    HOST_PROFILE_FORMAT,
    INTERVAL_S,
    LAYERS,
    HostSampler,
)

__all__ = [
    "HOST_PROFILE_FORMAT",
    "INTERVAL_S",
    "LAYERS",
    "HostSampler",
]
