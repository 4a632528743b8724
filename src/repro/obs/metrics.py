"""Metrics primitives: named counters, gauges and streaming histograms.

The registry is the aggregate half of the observability layer (the
time-resolved half lives in :mod:`repro.obs.timeseries`).  Histograms
are fixed-bucket *log* histograms: values land in geometrically spaced
buckets (four per octave, ~19 % resolution), so p50/p95/p99 come from a
few hundred integers with no sample retention — recording a value is
O(1) and memory is constant no matter how long the run is.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable

#: Bucket boundaries grow by this factor: 2 ** (1/4), four per octave.
HIST_BASE = 2.0 ** 0.25
_LOG_BASE = math.log(HIST_BASE)
#: 256 buckets cover values up to HIST_BASE ** 255 ~= 1.2e19.
HIST_BUCKETS = 256


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-value-wins named measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class LogHistogram:
    """Streaming percentile estimates over log-spaced buckets.

    Bucket ``i`` (``i >= 1``) holds values in
    ``(HIST_BASE ** (i - 1), HIST_BASE ** i]``; bucket 0 holds values
    ``<= 1``.  A percentile query walks the cumulative counts and
    returns the upper bound of the bucket containing the requested
    rank, clamped to the observed min/max — the estimate is within one
    bucket width (~19 %) of the true order statistic.
    """

    __slots__ = ("name", "counts", "count", "total", "min_value", "max_value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counts = [0] * HIST_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = 0.0

    @staticmethod
    def bucket_index(value: float) -> int:
        if value <= 1.0:
            return 0
        idx = int(math.log(value) / _LOG_BASE) + 1
        return idx if idx < HIST_BUCKETS else HIST_BUCKETS - 1

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be non-negative")
        self.counts[self.bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def record_many(self, values) -> None:
        """Bulk :meth:`record`: same buckets, same running totals (the
        float sum visits the values in order), one call for a whole
        batch — the event core's per-kernel latency recording."""
        counts = self.counts
        total = self.total
        min_value = self.min_value
        max_value = self.max_value
        log = math.log
        log_base = _LOG_BASE
        top = HIST_BUCKETS - 1
        for value in values:
            if value < 0:
                raise ValueError("histogram values must be non-negative")
            if value <= 1.0:
                counts[0] += 1
            else:
                idx = int(log(value) / log_base) + 1
                counts[idx if idx < top else top] += 1
            total += value
            if value < min_value:
                min_value = value
            if value > max_value:
                max_value = value
        self.count += len(values)
        self.total = total
        self.min_value = min_value
        self.max_value = max_value

    def merge(self, other: "LogHistogram") -> None:
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def state(self) -> dict:
        """Lossless, JSON-safe serialisation for cross-process merging.

        Bucket counts are sparse (``{index: count}``) — most of the 256
        buckets are empty for any one metric, and JSON keys are strings
        anyway.  ``min`` is ``None`` when nothing was recorded (JSON has
        no ``inf``)."""
        return {
            "counts": {str(i): n for i, n in enumerate(self.counts) if n},
            "count": self.count,
            "total": self.total,
            "min": self.min_value if self.count else None,
            "max": self.max_value,
        }

    def merge_state(self, state: dict) -> None:
        """Merge a :meth:`state` dict (e.g. from a campaign worker)."""
        for idx, n in state["counts"].items():
            self.counts[int(idx)] += n
        self.count += state["count"]
        self.total += state["total"]
        if state["min"] is not None and state["min"] < self.min_value:
            self.min_value = state["min"]
        if state["max"] > self.max_value:
            self.max_value = state["max"]

    @property
    def average(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate of the p-th percentile (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for idx, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                upper = 1.0 if idx == 0 else HIST_BASE ** idx
                return min(max(upper, self.min_value), self.max_value)
        return self.max_value

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "avg": self.average,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create store for named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LogHistogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> LogHistogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = LogHistogram(name)
        return h

    def names(self) -> Iterable[str]:
        """Every registered metric name, sorted within each kind so
        iteration order (and anything exported from it) is stable
        regardless of registration order."""
        yield from sorted(self._counters)
        yield from sorted(self._gauges)
        yield from sorted(self._histograms)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        Counters and histogram buckets add; gauges are last-value-wins
        (the merged-in value overwrites, matching :meth:`Gauge.set`).
        Used to aggregate campaign-worker metrics back into the parent
        process, where in-place mutation inside the worker is lost.
        """
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, g in other._gauges.items():
            self.gauge(name).set(g.value)
        for name, h in other._histograms.items():
            self.histogram(name).merge(h)

    def state(self) -> dict:
        """Lossless JSON-safe form of the registry (vs. :meth:`snapshot`
        which reduces histograms to summary percentiles)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.state() for n, h in sorted(self._histograms.items())
            },
        }

    def merge_state(self, state: dict) -> None:
        """Merge a :meth:`state` dict produced in another process."""
        for name, value in state["counters"].items():
            self.counter(name).inc(value)
        for name, value in state["gauges"].items():
            self.gauge(name).set(value)
        for name, hist_state in state["histograms"].items():
            self.histogram(name).merge_state(hist_state)

    def snapshot(self) -> dict:
        """One JSON-ready dict of every registered metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }
