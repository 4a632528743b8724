"""Host-speed normalisation for end-to-end host times.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes, which swamps the differences a change
makes.  A fixed reference kernel -- pure Python dict probes, float
arithmetic and heap operations on a cache-resident table, the
operation mix of the simulator's event loop, but no repository code --
is timed every ``SAMPLE_INTERVAL_S`` of CPU time in every process that
does the pass's work (the benchmark process, and pool workers forked
from it).  A host interval is reported at reference speed:

    normalised = (raw - kernel time inside it)
                 * REFERENCE_KERNEL_S / mean(kernel times inside it)

so it reads as the host seconds the pass would have taken on a host
where the kernel takes ``REFERENCE_KERNEL_S``.  A change to the program
cannot move the kernel, so the ratio between two commits is kept while
the machine's drift divides out.  Samples cost about 1 % of the pass.
"""

from __future__ import annotations

import heapq
import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

#: The reference kernel's time on the host the benchmark was written
#: on (2-core x86 container, CPython 3.11), in seconds.
REFERENCE_KERNEL_S = 0.001
#: CPU seconds between kernel samples while a process computes.
SAMPLE_INTERVAL_S = 0.1

_TABLE = {i: (i * 2654435761) & 0xFFFFF for i in range(1 << 10)}

clock = time.perf_counter


def reference_kernel() -> float:
    """One fixed unit of reference work; returns its result so the
    work cannot be skipped."""
    table = _TABLE
    heap: List[float] = []
    seen = {}
    acc = 0.0
    for i in range(1500):
        value = table[(i * 40503) & 0x3FF]
        acc += value * 0.25
        seen[value & 1023] = acc
        heapq.heappush(heap, acc)
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc + len(seen)


def _timed_kernel() -> float:
    start = clock()
    reference_kernel()
    return clock() - start


def _arm(on_tick) -> object:
    """Run ``on_tick`` every ``SAMPLE_INTERVAL_S`` of this process's
    CPU time (``ITIMER_VIRTUAL``: it never collides with the campaign
    engine's ``SIGALRM`` job timeouts); returns the previous handler."""
    previous = signal.signal(signal.SIGVTALRM, lambda *_: on_tick())
    signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL_S,
                     SAMPLE_INTERVAL_S)
    return previous


def _disarm(previous) -> None:
    signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
    signal.signal(signal.SIGVTALRM, previous)


#: While set, processes forked from this one append their kernel
#: samples to ``speed-<pid>.txt`` in this directory.
_child_log_dir: Optional[Path] = None
_fork_hook_registered = False


def _start_child_sampling() -> None:
    if _child_log_dir is None:
        return
    path = _child_log_dir / f"speed-{os.getpid()}.txt"

    def on_tick() -> None:
        duration = _timed_kernel()
        with open(path, "a") as log:
            log.write(f"{duration!r}\n")

    _arm(on_tick)


class SpeedMeter:
    """Collects reference-kernel samples and converts host intervals.

    A disabled meter samples nothing and reports raw host time (factor
    1); the traced run uses one, so that its timings stay raw."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Duration of every kernel sample, in order.
        self.samples: List[float] = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy or not self.enabled:
            return
        self._busy = True
        try:
            self.samples.append(_timed_kernel())
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedMeter":
        if self.enabled:
            self._previous = _arm(self.sample)
        return self

    def __exit__(self, *_exc) -> None:
        if self.enabled:
            _disarm(self._previous)

    @contextmanager
    def children(self, log_dir: Path) -> Iterator[None]:
        """Sample in every process forked inside the block too, and add
        those samples to :attr:`samples` when it ends."""
        global _child_log_dir, _fork_hook_registered
        if not self.enabled:
            yield
            return
        if not _fork_hook_registered:
            os.register_at_fork(after_in_child=_start_child_sampling)
            _fork_hook_registered = True
        log_dir.mkdir(parents=True, exist_ok=True)
        _child_log_dir = log_dir
        try:
            yield
        finally:
            _child_log_dir = None
            for log in sorted(log_dir.glob("speed-*.txt")):
                self.samples.extend(float(line)
                                    for line in log.read_text().split())
                log.unlink()

    def mark(self) -> int:
        """A position in the sample list (for :meth:`factor`)."""
        return len(self.samples)

    def factor(self, first: int, last: int) -> float:
        """Reference speed over measured speed across samples
        ``[first, last)`` (below 1 when the host ran slow); the whole
        run's samples stand in when that range is empty."""
        if not self.enabled:
            return 1.0
        durations = self.samples[first:last] or self.samples
        if not durations:
            for _ in range(40):
                self.sample()
            durations = self.samples
        return REFERENCE_KERNEL_S * len(durations) / sum(durations)

    def interval(self, start: float, end: float, first: int,
                 last: int) -> float:
        """The host interval ``[start, end)``, during which samples
        ``[first, last)`` were taken in this process, at reference speed
        and without the samples' own time."""
        sampled = sum(self.samples[first:last])
        return (end - start - sampled) * self.factor(first, last)
