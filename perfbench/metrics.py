"""Metric definitions and the folds that compute them.

End-to-end metrics come from untraced passes; per-layer metrics come
from the traced run (host time from :mod:`perfbench.spans`, simulated
counts from the cells' results).  ``BENCHMARK.json`` lists the same
names, units and directions; a test keeps the two in step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from perfbench.checks import fig12_err_pp


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    meaning: str
    #: The end-to-end metric(s) this one should move, and where.
    moves: str
    on: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", 0.25,
             "host seconds from a fresh Runner to the last result, "
             "set-up included (median over passes)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "host seconds before the first scheme cell: workload build "
             "+ calibration (paper-fig12, golden-matrix); until the "
             "campaign reports its first terminal cell (churn-pool)"),
    EndToEnd("cells_per_s", "1/s", "higher", 0.25,
             "scheme cells completed per host second after set-up"),
    EndToEnd("sim_kacc_per_s", "1/s", "higher", 0.25,
             "simulated L2 accesses (sum of RunResult.l2.accesses), in "
             "thousands per host second after set-up"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident set of the benchmark process or any of its "
             "pool workers"),
    EndToEnd("ok_frac", "fraction", "higher", 0.01,
             "1 - fail_frac: cells that ran and passed their output "
             "check, over cells attempted"),
]

_FIG12 = "paper-fig12"
_GOLDEN = "golden-matrix"
_CHURN = "churn-pool"

PER_LAYER: List[PerLayer] = [
    PerLayer("cell_s_p50", "s", "lower",
             "median per-cell host seconds, untraced pass",
             "wall_s, cells_per_s", f"{_FIG12}, {_GOLDEN}, {_CHURN}"),
    PerLayer("cell_s_tail", "s", "lower",
             "per-cell host seconds at the highest percentile with at "
             "least 10 cells beyond it, untraced pass",
             "wall_s", f"{_GOLDEN}, {_CHURN}"),
    PerLayer("workloads.build_s", "s", "lower",
             "suite and composed workload construction",
             "setup_s", f"{_CHURN}, {_FIG12}"),
    PerLayer("runner.calibrate_s", "s", "lower",
             "Runner.calibration, inclusive", "setup_s, wall_s",
             f"{_FIG12}, {_GOLDEN}"),
    PerLayer("runner.calibrate_runs", "count", "lower",
             "Runner.calibration calls that simulated (not cached)",
             "setup_s, wall_s", f"{_FIG12}, {_GOLDEN}"),
    PerLayer("profiling.ingest_s", "s", "lower",
             "TraceProfile.ingest of the recorded stream",
             "setup_s, wall_s", f"{_FIG12}, {_GOLDEN}"),
    PerLayer("runner.copy_s", "s", "lower",
             "self time of Runner.run and Runner.baseline: result cache "
             "and deep copies", "cell_s_p50", _GOLDEN),
    PerLayer("gpu.init_s", "s", "lower", "GPUSimulator construction",
             "cell_s_p50", _GOLDEN),
    PerLayer("gpu.run_self_s", "s", "lower",
             "self time of GPUSimulator.run: kernel sequencing and "
             "result assembly", "cell_s_p50", _GOLDEN),
    PerLayer("pipeline.translate_s", "s", "lower",
             "MemoryPipeline.translate_batch",
             "sim_kacc_per_s, cells_per_s", _FIG12),
    PerLayer("pipeline.run_batch_self_s", "s", "lower",
             "self time of MemoryPipeline.run_batch: the event loop with "
             "its inlined L2 hits and FIFO data-DRAM occupancy",
             "sim_kacc_per_s, cells_per_s", _FIG12),
    PerLayer("pipeline.writeback_s", "s", "lower",
             "MemoryPipeline.writeback, inclusive",
             "sim_kacc_per_s, cells_per_s", _FIG12),
    PerLayer("pipeline.final_flush_s", "s", "lower",
             "MemoryPipeline.final_flush, inclusive",
             "sim_kacc_per_s, cells_per_s", _FIG12),
    PerLayer("pipeline.access_s", "s", "lower",
             "MemoryPipeline.access (legacy per-access core)",
             "cell_s_tail", _GOLDEN),
    PerLayer("pipeline.schedule_s", "s", "lower",
             "MemoryPipeline.schedule of materialised DRAM requests",
             "cell_s_tail", _GOLDEN),
    PerLayer("l2.range_s", "s", "lower", "L2Bank.access_data_range",
             "sim_kacc_per_s", _FIG12),
    PerLayer("l2.range_calls", "count", "lower",
             "L2Bank.access_data_range calls", "sim_kacc_per_s", _FIG12),
    PerLayer("l2.miss_ratio", "ratio", "lower",
             "simulated: L2 misses over L2 accesses, all cells",
             "sim_kacc_per_s", _FIG12),
    PerLayer("mee.read_miss_s", "s", "lower",
             "MEE read-miss walk (direct and materialised), inclusive",
             "cells_per_s", f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.read_miss_calls", "count", "lower",
             "MEE read-miss walks", "cells_per_s", f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.writeback_s", "s", "lower",
             "MEE secure write-back (direct and materialised), inclusive",
             "cells_per_s", f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.writeback_calls", "count", "lower",
             "MEE secure write-backs", "cells_per_s",
             f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.kernel_boundary_s", "s", "lower",
             "MemoryEncryptionEngine.on_kernel_boundary", "cells_per_s",
             f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.host_copy_s", "s", "lower",
             "MemoryEncryptionEngine.on_host_copy", "cells_per_s",
             f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.flush_s", "s", "lower",
             "MEE teardown flush (direct and materialised)", "cells_per_s",
             f"{_FIG12}, {_GOLDEN}"),
    PerLayer("mee.meta_per_data", "ratio", "lower",
             "simulated: metadata bytes over data bytes, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("mee.readonly_acc", "fraction", "higher",
             "simulated: read-only detector accuracy, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("mee.streaming_acc", "fraction", "higher",
             "simulated: streaming detector accuracy, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("metadata.mdc_accesses", "count", "lower",
             "simulated: metadata-cache accesses, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("metadata.ctr_bytes", "B", "lower",
             "simulated: counter DRAM bytes, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("metadata.mac_bytes", "B", "lower",
             "simulated: MAC DRAM bytes, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("metadata.bmt_bytes", "B", "lower",
             "simulated: integrity-tree DRAM bytes, all cells",
             "fig12_err_pp", _FIG12),
    PerLayer("dram.service_s", "s", "lower",
             "DRAMChannel.service (non-FIFO schedulers), inclusive",
             "cell_s_tail", _GOLDEN),
    PerLayer("dram.service_calls", "count", "lower",
             "DRAMChannel.service calls", "cell_s_tail", _GOLDEN),
    PerLayer("dram.utilization", "fraction", "higher",
             "simulated: mean DRAM utilisation over cells",
             "cell_s_tail", _GOLDEN),
    PerLayer("ledger.s", "s", "lower",
             "DecisionLedger taps and summaries", "cells_per_s", _CHURN),
    PerLayer("ledger.rows", "count", "lower",
             "decision-ledger rows, all cells", "cells_per_s", _CHURN),
    PerLayer("ledger.learned_rows", "count", "lower",
             "ledger rows from the learned policies (learned_*, "
             "arm_select)", "cells_per_s", _CHURN),
    PerLayer("campaign.serial_cells_per_s", "1/s", "higher",
             "cells per host second after set-up in the traced serial "
             "run (--jobs 1)", "wall_s, cells_per_s", _CHURN),
    PerLayer("parallel.worker_util", "fraction", "higher",
             "sum of cell runtimes over (jobs x cell-phase wall), "
             "untraced", "wall_s, cells_per_s", _CHURN),
    PerLayer("campaign.overhead_s", "s", "lower",
             "cell-phase wall minus sum of cell runtimes / jobs, "
             "untraced", "wall_s, cells_per_s", _CHURN),
    PerLayer("campaign.retries", "count", "lower",
             "cell attempts beyond the first, untraced",
             "wall_s, cells_per_s", _CHURN),
    PerLayer("store.put_s", "s", "lower", "ResultStore.put",
             "wall_s", _CHURN),
    PerLayer("store.put_calls", "count", "lower", "ResultStore.put calls",
             "wall_s", _CHURN),
    PerLayer("store.resume_s", "s", "lower",
             "wall of the all-cached resume pass, untraced",
             "wall_s", _CHURN),
    PerLayer("results.serialize_s", "s", "lower",
             "serialize_run_result called by the campaign layer",
             "wall_s", _CHURN),
    PerLayer("fig12_err_pp", "pp", "lower",
             "simulated: mean |suite-average overhead - paper Fig. 12 "
             "average| over the 5 Fig. 12 schemes; -1 where the workload "
             "holds no Fig. 12 matrix", "(fidelity)",
             f"{_FIG12}, {_GOLDEN}"),
    PerLayer("trace.overhead", "ratio", "lower",
             "traced wall over untraced wall (churn-pool: traced serial "
             "wall over the untraced sum of cell runtimes)", "-", "-"),
]

#: Span name (see perfbench.spans.TARGETS) -> per-layer metrics fed by
#: its inclusive total and call count.
_SPAN_TOTALS: Dict[str, Tuple[str, str]] = {
    "workloads.build": ("workloads.build_s", ""),
    "runner.calibration": ("runner.calibrate_s", ""),
    "profiling.ingest": ("profiling.ingest_s", ""),
    "gpu.init": ("gpu.init_s", ""),
    "pipeline.translate": ("pipeline.translate_s", ""),
    "pipeline.writeback": ("pipeline.writeback_s", ""),
    "pipeline.final_flush": ("pipeline.final_flush_s", ""),
    "pipeline.access": ("pipeline.access_s", ""),
    "pipeline.schedule": ("pipeline.schedule_s", ""),
    "l2.range": ("l2.range_s", "l2.range_calls"),
    "mee.read_miss": ("mee.read_miss_s", "mee.read_miss_calls"),
    "mee.writeback": ("mee.writeback_s", "mee.writeback_calls"),
    "mee.kernel_boundary": ("mee.kernel_boundary_s", ""),
    "mee.host_copy": ("mee.host_copy_s", ""),
    "mee.flush": ("mee.flush_s", ""),
    "dram.service": ("dram.service_s", "dram.service_calls"),
    "ledger": ("ledger.s", ""),
    "store.put": ("store.put_s", "store.put_calls"),
    "results.serialize": ("results.serialize_s", ""),
}

LEARNED_ROW_TYPES = ("learned_promote", "learned_demote", "learned_verdict",
                     "arm_select")


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest order statistic that
    still has at least ``beyond`` samples above it.  The percentile is
    the share of samples at or below that order statistic."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(passes, peak_rss_mb: float, attempted: int,
               failed: int) -> Dict[str, float]:
    """The end-to-end metrics: medians over untraced passes."""
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(p.setup_s for p in passes),
        "cells_per_s": statistics.median(p.cells_per_s for p in passes),
        "sim_kacc_per_s": statistics.median(p.kacc_per_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


def cell_times(passes) -> Tuple[float, float, str]:
    """Median and tail per-cell host seconds over ``passes``, and a
    note naming the tail's percentile and the cell count."""
    runtimes = [cell.runtime for p in passes for cell in p.cells]
    tail_value, tail_pct = tail(runtimes)
    return (statistics.median(runtimes), tail_value,
            f"cell_s_tail is p{tail_pct:.4g} of {len(runtimes)} cells")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated(cells) -> Dict[str, float]:
    """Per-layer metrics read from the cells' simulated results."""
    results = [c.result for c in cells if c.result is not None]
    accesses = sum(r.l2.accesses for r in results)
    data = sum(r.traffic.data_bytes for r in results)
    meta = sum(r.traffic.metadata_bytes for r in results)
    ro_correct = sum(r.readonly_stats.correct for r in results)
    ro_total = sum(r.readonly_stats.total for r in results)
    st_correct = sum(r.streaming_stats.correct for r in results)
    st_total = sum(r.streaming_stats.total for r in results)
    decisions = [c.decisions for c in cells if c.decisions]
    return {
        "l2.miss_ratio": _ratio(sum(r.l2.misses for r in results), accesses),
        "mee.meta_per_data": _ratio(meta, data),
        "mee.readonly_acc": _ratio(ro_correct, ro_total),
        "mee.streaming_acc": _ratio(st_correct, st_total),
        "metadata.mdc_accesses": sum(r.mdc_accesses for r in results),
        "metadata.ctr_bytes": sum(r.traffic.counter_bytes for r in results),
        "metadata.mac_bytes": sum(r.traffic.mac_bytes for r in results),
        "metadata.bmt_bytes": sum(r.traffic.bmt_bytes for r in results),
        "dram.utilization": _ratio(sum(r.dram_utilization for r in results),
                                   len(results)),
        "ledger.rows": sum(d["total"] for d in decisions),
        "ledger.learned_rows": sum(
            d["by_type"].get(t, {}).get("count", 0)
            for d in decisions for t in LEARNED_ROW_TYPES),
    }


def per_layer(untraced, traced, tracer) -> Dict[str, float]:
    """Every per-layer metric, from one untraced and one traced pass of
    the same workload."""
    values: Dict[str, float] = {}
    for span, (total_name, calls_name) in _SPAN_TOTALS.items():
        values[total_name] = tracer.total_s(span)
        if calls_name:
            values[calls_name] = tracer.calls(span)
    values["runner.calibrate_runs"] = sum(
        1 for span in tracer.spans_named("runner.calibration") if span[7])
    values["runner.copy_s"] = (tracer.self_s("runner.run")
                               + tracer.self_s("runner.baseline"))
    values["gpu.run_self_s"] = tracer.self_s("gpu.run")
    values["pipeline.run_batch_self_s"] = tracer.self_s("pipeline.run_batch")
    values.update(simulated(untraced.cells))
    values["cell_s_p50"], values["cell_s_tail"], _ = cell_times([untraced])

    cell_work = sum(c.runtime for c in untraced.cells)
    values["campaign.serial_cells_per_s"] = traced.cells_per_s
    values["parallel.worker_util"] = _ratio(
        cell_work, untraced.jobs * untraced.cell_phase_s)
    values["campaign.overhead_s"] = (untraced.cell_phase_s
                                     - cell_work / untraced.jobs)
    values["campaign.retries"] = sum(c.attempts - 1 for c in untraced.cells)
    values["store.resume_s"] = untraced.resume_s
    values["fig12_err_pp"] = (fig12_err_pp(untraced.fig12_series)
                              if untraced.fig12_series else -1.0)
    serial_work = untraced.wall_s if untraced.jobs == 1 else cell_work
    values["trace.overhead"] = _ratio(traced.wall_s, serial_work)
    return {m.name: values[m.name] for m in PER_LAYER}
