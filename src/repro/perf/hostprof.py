"""Host-time profiling of the simulator by stack sampling.

:class:`HostSampler` answers "where does the *host* spend its time
while simulating?" — the complement of the :mod:`repro.obs` layer,
which observes simulated cycles.  It is out of band: nothing in the
simulator knows it exists, so a sampled run takes exactly the code
path (batch loop, fused metadata hits and misses) of an unsampled
one.

While the context is open, ``setitimer(ITIMER_PROF)`` delivers a
SIGPROF every :data:`INTERVAL_S` of process CPU time.  The handler
walks the interrupted stack outwards to the innermost ``repro`` frame
and counts the sample against that frame's layer (:func:`layer_of`);
a sample with no ``repro`` frame on the stack counts as ``other``.  A
share is a layer's sample count over the run's total, so its standard
error is ``sqrt(share * (1 - share) / samples)``.

A sampler rather than :mod:`cProfile`: a deterministic profiler adds a
cost to every call, which inflates the call-dense layers it is meant
to compare.  Unix only (``setitimer``), main thread only (CPython runs
signal handlers there).
"""

from __future__ import annotations

import signal
import threading
from time import perf_counter
from types import FrameType
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

#: Schema version of :meth:`HostSampler.report` documents.
HOST_PROFILE_FORMAT = 2

#: Sampling interval, in seconds of process CPU time.  Linux checks
#: CPU-time timers at its scheduler tick, so the effective rate is at
#: most ``HZ`` samples per CPU second (250 on a ``HZ=250`` kernel).
INTERVAL_S = 0.001

#: ``(module prefix, layer)`` for the innermost ``repro`` frame; the
#: first matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.gpu", "frontend"),
    ("repro.sim.events", "frontend"),
    ("repro.sim.pipeline", "pipeline"),
    ("repro.memory.l2", "l2"),
    ("repro.memory.cache", "l2"),
    ("repro.memory.mshr", "l2"),
    ("repro.memory.dram", "dram"),
    ("repro.memory.sched", "dram"),
    ("repro.core", "mee"),
    ("repro.metadata", "metadata"),
    ("repro.obs", "obs"),
)

#: ``(module, function)`` pairs split out of their module's layer.
FUNCTION_LAYERS: Dict[Tuple[str, str], str] = {
    ("repro.sim.pipeline", "translate_batch"): "translate",
}

#: Every layer a sample can land in, in report order: ``setup`` is
#: any other ``repro`` module, ``other`` a stack with no ``repro``
#: frame.
LAYERS = ("frontend", "translate", "pipeline", "l2", "mee", "metadata",
          "dram", "obs", "setup", "other")


def layer_of(module: str, function: str) -> Optional[str]:
    """The layer of one frame, or None when it is not ``repro`` code."""
    if module != "repro" and not module.startswith("repro."):
        return None
    layer = FUNCTION_LAYERS.get((module, function))
    if layer is not None:
        return layer
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "setup"


def fold(stack: Iterable[Tuple[str, str]]) -> str:
    """The layer of one sample: ``stack`` yields ``(module, function)``
    pairs from the innermost frame outwards."""
    for module, function in stack:
        layer = layer_of(module, function)
        if layer is not None:
            return layer
    return "other"


def _frames(frame: Optional[FrameType]) -> Iterator[Tuple[str, str]]:
    while frame is not None:
        yield frame.f_globals.get("__name__", ""), frame.f_code.co_name
        frame = frame.f_back


class HostSampler:
    """Context manager: SIGPROF stack sampling of the enclosed code.

    Re-entering accumulates into the same counts.  The previous SIGPROF
    handler and ``ITIMER_PROF`` setting are restored on exit, also when
    the body raises.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Host wall seconds spent inside the context.
        self.wall_s = 0.0
        #: Host seconds spent inside the SIGPROF handler.
        self.sampler_s = 0.0
        self._start = 0.0
        self._previous_handler: Any = None
        self._previous_timer = (0.0, 0.0)

    def __enter__(self) -> "HostSampler":
        if not (hasattr(signal, "setitimer") and hasattr(signal, "SIGPROF")):
            raise RuntimeError(
                "host profiling needs signal.setitimer and SIGPROF, "
                "which this platform lacks (Unix only)")
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(
                "host profiling must run on the main thread: CPython "
                "delivers SIGPROF to handlers only there")
        self._previous_handler = signal.signal(signal.SIGPROF, self._sample)
        self._previous_timer = signal.setitimer(
            signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_s += perf_counter() - self._start
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        previous = self._previous_handler
        # None: the previous handler was not installed from Python.
        signal.signal(signal.SIGPROF,
                      signal.SIG_DFL if previous is None else previous)
        if self._previous_timer[0] > 0.0:
            signal.setitimer(signal.ITIMER_PROF, *self._previous_timer)

    def _sample(self, signum: int, frame: Optional[FrameType]) -> None:
        start = perf_counter()
        self.counts[fold(_frames(frame))] += 1
        self.sampler_s += perf_counter() - start

    def report(self) -> dict:
        """``wall_s``, ``samples``, ``sampler_s`` and each layer's share
        of the samples (all zero when there are none)."""
        samples = sum(self.counts.values())
        return {
            "wall_s": self.wall_s,
            "samples": samples,
            "sampler_s": self.sampler_s,
            "shares": {layer: count / samples if samples else 0.0
                       for layer, count in self.counts.items()},
        }
