"""Performance observability: host-time profiling and paired benchmarking.

Where :mod:`repro.obs` observes *simulated* cycles, this package
observes the simulator itself: host time per simulator layer from an
out-of-band stack sampler (:mod:`repro.perf.hostprof`), and ``repro
bench BASE``, paired runs of the repository benchmark (``perfbench/``)
on the working tree and on a git revision (:mod:`repro.perf.ab`).
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
