"""Baseline comparison and the regression gate for ``repro bench``.

Benchmarks are matched by name between an old (baseline) and a new
(current) document; the compared statistic is the **median** (robust
against one noisy sample).  A benchmark regresses when its median
grew by more than the threshold (default 15 %); ``repro bench
--compare`` exits nonzero when any benchmark regresses.

The baseline is a committed ``BENCH_*.json`` file (:func:`compare_docs`
against a validated document).  The verdict is *per benchmark cell*:
every :class:`CompareRow` carries its own median delta, and
:func:`compare_report` serialises the full per-cell table (not just
the aggregate verdict) for the CI report artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Default regression gate: > 15 % median growth fails.
DEFAULT_THRESHOLD = 0.15

STATUS_OK = "ok"
STATUS_REGRESSION = "regression"
STATUS_IMPROVED = "improved"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"
STATUS_INCOMPARABLE = "incomparable"


@dataclass
class CompareRow:
    """Per-benchmark comparison outcome."""

    name: str
    unit: str
    status: str
    old_median: Optional[float] = None
    new_median: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        """new / old median (None when either side is missing)."""
        if self.old_median and self.new_median is not None:
            return self.new_median / self.old_median
        return None

    @property
    def delta(self) -> Optional[float]:
        """Relative median change, ``new/old - 1`` (+0.23 = 23 %
        slower; None when the cells are incomparable)."""
        ratio = self.ratio
        return None if ratio is None else ratio - 1.0


def compare_docs(old: dict, new: dict,
                 threshold: float = DEFAULT_THRESHOLD) -> List[CompareRow]:
    """Compare two validated benchmark documents, benchmark by name.

    Improvement is flagged symmetrically (median shrank by more than
    the threshold) but never gates; renamed/retired benchmarks show as
    added/removed rather than silently vanishing from the report.
    """
    old_benchmarks = old["benchmarks"]
    new_benchmarks = new["benchmarks"]
    rows = []
    for name in sorted(set(old_benchmarks) | set(new_benchmarks)):
        old_entry = old_benchmarks.get(name)
        new_entry = new_benchmarks.get(name)
        if old_entry is None:
            assert new_entry is not None
            rows.append(CompareRow(name, new_entry["unit"], STATUS_ADDED,
                                   new_median=new_entry["stats"]["median"]))
            continue
        if new_entry is None:
            rows.append(CompareRow(name, old_entry["unit"], STATUS_REMOVED,
                                   old_median=old_entry["stats"]["median"]))
            continue
        old_median = old_entry["stats"]["median"]
        new_median = new_entry["stats"]["median"]
        if old_entry["unit"] != new_entry["unit"] or old_median <= 0:
            rows.append(CompareRow(name, new_entry["unit"],
                                   STATUS_INCOMPARABLE,
                                   old_median=old_median,
                                   new_median=new_median))
            continue
        ratio = new_median / old_median
        if ratio > 1.0 + threshold:
            status = STATUS_REGRESSION
        elif ratio < 1.0 - threshold:
            status = STATUS_IMPROVED
        else:
            status = STATUS_OK
        rows.append(CompareRow(name, new_entry["unit"], status,
                               old_median=old_median, new_median=new_median))
    return rows


def regressions(rows: List[CompareRow]) -> List[CompareRow]:
    return [row for row in rows if row.status == STATUS_REGRESSION]


def compare_report(rows: List[CompareRow], threshold: float,
                   baseline: Optional[str] = None) -> dict:
    """The machine-readable comparison document (the CI artifact).

    Carries the full per-cell table — name, unit, status, both
    medians, ratio and signed delta — plus the names of the regressed
    cells, so the artifact answers *which* cells regressed and by how
    much, not just whether the gate tripped.
    """
    return {
        "compare_format": 1,
        "threshold": threshold,
        "baseline": baseline,
        "regressed": [row.name for row in regressions(rows)],
        "cells": [
            {
                "name": row.name,
                "unit": row.unit,
                "status": row.status,
                "old_median": row.old_median,
                "new_median": row.new_median,
                "ratio": row.ratio,
                "delta_pct": (None if row.delta is None
                              else round(100.0 * row.delta, 2)),
            }
            for row in rows
        ],
    }
