"""Cycle-window samplers: the time-resolved half of observability.

A :class:`WindowedSeries` buckets instrumentation events into fixed
cycle windows and keeps, per window, a compact columnar accumulator:
per-kind DRAM bytes, L2 and MDC hit counts, victim-cache probes,
demand-read latency sums, frontend stall cycles and per-partition DRAM
busy/wait cycles.  Events may arrive out of cycle order (completions
overtake issues in the simulator); rows are keyed by window index and
sorted once at :meth:`finalize`.

The per-kind byte columns are *exact*: every site that increments the
run's aggregate :class:`~repro.common.types.TrafficCounters` also adds
the same amount here, so summing the rows of a run reconstructs its
aggregate traffic byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List

#: Scalar columns accumulated per window.
SCALAR_COLUMNS = (
    "data_bytes",
    "ctr_bytes",
    "mac_bytes",
    "bmt_bytes",
    "mispred_bytes",
    "l2_accesses",
    "l2_misses",
    "mdc_accesses",
    "mdc_misses",
    "victim_probes",
    "victim_hits",
    "reads",
    "read_latency_sum",
    "stall_cycles",
)

#: Per-partition columns (lists of length ``num_partitions``).
PARTITION_COLUMNS = ("dram_busy", "dram_wait", "dram_requests")

#: Traffic kind -> column.  Unknown kinds count as demand data.
KIND_COLUMNS = {
    "data": "data_bytes",
    "ctr": "ctr_bytes",
    "mac": "mac_bytes",
    "bmt": "bmt_bytes",
    "mispred": "mispred_bytes",
}


class WindowedSeries:
    """Per-window accumulators for one simulation run."""

    def __init__(self, window_cycles: float, num_partitions: int,
                 run: str = "") -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if num_partitions < 1:
            raise ValueError("num_partitions must be at least 1")
        self.window_cycles = float(window_cycles)
        self.num_partitions = num_partitions
        self.run = run
        self.kernel = 0
        self._rows: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _row(self, cycle: float) -> dict:
        idx = int(cycle // self.window_cycles) if cycle > 0 else 0
        row = self._rows.get(idx)
        if row is None:
            row = {name: 0 for name in SCALAR_COLUMNS}
            for name in PARTITION_COLUMNS:
                row[name] = [0.0] * self.num_partitions
            row["kernel"] = self.kernel
            self._rows[idx] = row
        return row

    def set_kernel(self, kernel_idx: int) -> None:
        """Subsequent windows are attributed to this kernel."""
        self.kernel = kernel_idx

    def traffic(self, cycle: float, kind: str, size: int) -> None:
        row = self._row(cycle)
        row[KIND_COLUMNS.get(kind, "data_bytes")] += size

    def l2_access(self, cycle: float, miss: bool) -> None:
        row = self._row(cycle)
        row["l2_accesses"] += 1
        if miss:
            row["l2_misses"] += 1

    def mdc_access(self, cycle: float, hit: bool) -> None:
        row = self._row(cycle)
        row["mdc_accesses"] += 1
        if not hit:
            row["mdc_misses"] += 1

    def victim_probe(self, cycle: float, hit: bool) -> None:
        row = self._row(cycle)
        row["victim_probes"] += 1
        if hit:
            row["victim_hits"] += 1

    def read_latency(self, cycle: float, latency: float) -> None:
        row = self._row(cycle)
        row["reads"] += 1
        row["read_latency_sum"] += latency

    def stall(self, start: float, end: float) -> None:
        # The whole stall is attributed to the window it started in;
        # stalls are short against any sane window size.
        self._row(start)["stall_cycles"] += end - start

    def dram(self, partition: int, arrival: float, start: float,
             busy_until: float) -> None:
        row = self._row(start)
        row["dram_busy"][partition] += busy_until - start
        row["dram_wait"][partition] += start - arrival
        row["dram_requests"][partition] += 1

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------

    def finalize(self) -> List[dict]:
        """Sorted, JSON-ready window rows with derived rates attached."""
        rows = []
        w = self.window_cycles
        for idx in sorted(self._rows):
            acc = self._rows[idx]
            row = {
                "type": "window",
                "run": self.run,
                "window": idx,
                "start_cycle": idx * w,
                "end_cycle": (idx + 1) * w,
                "kernel": acc["kernel"],
            }
            for name in SCALAR_COLUMNS:
                row[name] = acc[name]
            for name in PARTITION_COLUMNS:
                row[name] = list(acc[name])
            row["l2_miss_rate"] = (
                acc["l2_misses"] / acc["l2_accesses"] if acc["l2_accesses"] else 0.0
            )
            row["mdc_hit_rate"] = (
                1.0 - acc["mdc_misses"] / acc["mdc_accesses"]
                if acc["mdc_accesses"] else 0.0
            )
            row["avg_read_latency"] = (
                acc["read_latency_sum"] / acc["reads"] if acc["reads"] else 0.0
            )
            busy = acc["dram_busy"]
            row["dram_utilization"] = [min(1.0, b / w) for b in busy]
            # Summed left to right: sum() rounds differently since
            # Python 3.12 (see repro.sim.stats.mean).
            total = 0.0
            for utilization in row["dram_utilization"]:
                total += utilization
            row["dram_utilization_mean"] = total / len(busy) if busy else 0.0
            rows.append(row)
        return rows

    def columns(self) -> Dict[str, list]:
        """The same data pivoted columnar: column name -> list."""
        rows = self.finalize()
        if not rows:
            return {}
        return {key: [row[key] for row in rows] for key in rows[0]}

    def totals(self) -> Dict[str, int]:
        """Across-window sums of the per-kind byte columns."""
        out = {name: 0 for name in KIND_COLUMNS.values()}
        for acc in self._rows.values():
            for name in out:
                out[name] += acc[name]
        return out
