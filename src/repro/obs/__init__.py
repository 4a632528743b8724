"""Observability: metrics registry, cycle-window time series,
Chrome-trace export for the MEE/DRAM contention path, and the security
decision-provenance ledger (:mod:`repro.obs.decisions`).

The package is zero-overhead when disabled: instrumented code holds an
:class:`~repro.obs.observer.Observer` (default
:data:`~repro.obs.observer.NULL_OBSERVER`) and guards each hook behind
one boolean check.  A campaign explains itself from its manifest
(:mod:`repro.eval.campaign`).  See ``docs/observability.md``.
"""

from repro.obs.decisions import (
    DECISION_TYPES,
    DecisionLedger,
    NULL_LEDGER,
    NullDecisionLedger,
)
from repro.obs.metrics import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.observer import (
    DEFAULT_WINDOW_CYCLES,
    NULL_OBSERVER,
    NullObserver,
    Observer,
)
from repro.obs.timeseries import WindowedSeries
from repro.obs.tracing import ChromeTracer

__all__ = [
    "ChromeTracer",
    "Counter",
    "DECISION_TYPES",
    "DEFAULT_WINDOW_CYCLES",
    "DecisionLedger",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_LEDGER",
    "NULL_OBSERVER",
    "NullDecisionLedger",
    "NullObserver",
    "Observer",
    "WindowedSeries",
]
