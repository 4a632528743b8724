"""Rendering experiment results as the paper-style tables.

Plain-text tables: one row per workload, one column per series, plus
the across-workload average row the paper quotes in its prose.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.eval.experiments import ExperimentResult


def format_table(
    result: ExperimentResult,
    percent: bool = False,
    title: Optional[str] = None,
) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table."""
    labels = list(result.series)
    workloads: List[str] = []
    for series in result.series.values():
        for name in series:
            if name not in workloads:
                workloads.append(name)

    def fmt(value: float) -> str:
        if percent:
            return f"{100 * value:7.2f}%"
        return f"{value:8.4f}"

    name_width = max([len("workload")] + [len(w) for w in workloads])
    header = "workload".ljust(name_width) + "  " + "  ".join(
        label.rjust(max(9, len(label))) for label in labels
    )
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    lines.append(header)
    lines.append("-" * len(header))
    for name in workloads:
        row = [name.ljust(name_width)]
        for label in labels:
            value = result.series[label].get(name)
            cell = fmt(value) if value is not None else "-"
            row.append(cell.rjust(max(9, len(label))))
        lines.append("  ".join(row))
    lines.append("-" * len(header))
    avg_row = ["average".ljust(name_width)]
    for label in labels:
        avg_row.append(fmt(result.average(label)).rjust(max(9, len(label))))
    lines.append("  ".join(avg_row))
    return "\n".join(lines)


def format_overheads(
    result: ExperimentResult, title: Optional[str] = None
) -> str:
    """Render a normalised-IPC result as performance *overheads*
    (1 - normalised IPC), the way the paper's prose quotes Fig. 12."""
    converted = ExperimentResult(result.experiment)
    for label, series in result.series.items():
        converted.series[label] = {
            name: 1.0 - value for name, value in series.items()
        }
    return format_table(converted, percent=True, title=title)


def summarize_averages(result: ExperimentResult, percent: bool = True) -> Dict[str, str]:
    out = {}
    for label, value in result.averages().items():
        out[label] = f"{100 * value:.2f}%" if percent else f"{value:.4f}"
    return out


# ----------------------------------------------------------------------
# Campaign manifests (``repro campaign`` output, ``campaign_format: 1``)
# ----------------------------------------------------------------------

def format_campaign_manifest(manifest: dict, verbose: bool = False) -> str:
    """Render a campaign manifest as the summary ``repro inspect``
    prints: totals, then one block per experiment with its series
    averages and any failed cells (always shown — failures should
    never be silent); ``verbose`` adds the full per-cell table, with
    the reason for each retried attempt."""
    totals = manifest["totals"]
    lines = [
        f"campaign: {', '.join(manifest['experiments'])}  "
        f"(scale {manifest['scale']}, {manifest['jobs']} worker(s), "
        f"code {manifest['code_version']})",
        f"cells: {totals['cells']} unique / {totals['references']} referenced"
        f" — {totals['executed']} executed, {totals['cached']} cached, "
        f"{totals['failed']} failed  "
        f"[{manifest['elapsed_seconds']:.1f}s]",
    ]
    if manifest.get("quarantined"):
        lines.append(f"quarantined store entries: "
                     f"{len(manifest['quarantined'])} (see store dir)")
    for name, exp in manifest["experiments"].items():
        lines.append("")
        lines.append(f"{name}: {exp['title']}  [{exp['provenance']}]")
        for label, avg in exp["averages"].items():
            lines.append(f"  {label:24s} average {avg:8.4f}")
        failed = [c for c in exp["cells"] if c["status"] != "ok"]
        if failed:
            lines.append(f"  {exp['failed']} failed cell(s) excluded "
                         f"from the aggregate:")
            for cell in failed:
                first_line = (cell.get("error") or "").strip().splitlines()
                lines.append(f"    {cell['workload']}/{cell['scheme']}: "
                             f"{first_line[-1] if first_line else '?'}")
        if verbose:
            for cell in exp["cells"]:
                state = "cached" if cell["cached"] else cell["status"]
                retries = cell.get("retries")
                lines.append(f"    {cell['workload']:14s} "
                             f"{cell['scheme']:16s} {state:7s} "
                             f"{cell['runtime_s']:8.2f}s x{cell['attempts']}"
                             + (f"  retried: {', '.join(retries)}"
                                if retries else ""))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Observability views (window rows from ``repro run --metrics-out``)
# ----------------------------------------------------------------------

_BYTE_COLUMNS = ("data_bytes", "ctr_bytes", "mac_bytes", "bmt_bytes",
                 "mispred_bytes")


def _merge_windows(rows: List[dict], limit: int) -> List[dict]:
    """Coalesce adjacent window rows so at most ``limit`` remain.

    Byte and count columns add; rate columns are rebuilt from the
    merged counts, so a merged table is still exact.
    """
    if limit <= 0 or len(rows) <= limit:
        return rows
    stride = -(-len(rows) // limit)  # ceil division
    merged = []
    for i in range(0, len(rows), stride):
        group = rows[i:i + stride]
        row = dict(group[0])
        row["end_cycle"] = group[-1]["end_cycle"]
        for name in _BYTE_COLUMNS + (
            "l2_accesses", "l2_misses", "mdc_accesses", "mdc_misses",
            "victim_probes", "victim_hits", "reads", "read_latency_sum",
            "stall_cycles",
        ):
            row[name] = sum(g[name] for g in group)
        row["l2_miss_rate"] = (
            row["l2_misses"] / row["l2_accesses"] if row["l2_accesses"] else 0.0
        )
        row["mdc_hit_rate"] = (
            1.0 - row["mdc_misses"] / row["mdc_accesses"]
            if row["mdc_accesses"] else 0.0
        )
        row["avg_read_latency"] = (
            row["read_latency_sum"] / row["reads"] if row["reads"] else 0.0
        )
        row["dram_utilization_mean"] = (
            sum(g["dram_utilization_mean"] for g in group) / len(group)
        )
        merged.append(row)
    return merged


def format_timeslices(
    rows: List[dict], limit: int = 40, title: Optional[str] = None
) -> str:
    """Render window rows as an aligned time-sliced table."""
    rows = _merge_windows(rows, limit)
    header = (f"{'cycles':>22s} {'kern':>4s} {'data KB':>9s} {'ctr KB':>8s} "
              f"{'mac KB':>8s} {'bmt KB':>8s} {'mis KB':>7s} {'L2miss':>7s} "
              f"{'MDChit':>7s} {'DRAM':>6s} {'stall':>9s} {'lat':>7s}")
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        span = f"{row['start_cycle']:,.0f}-{row['end_cycle']:,.0f}"
        lines.append(
            f"{span:>22s} {row['kernel']:4d} "
            f"{row['data_bytes'] / 1024:9.1f} {row['ctr_bytes'] / 1024:8.1f} "
            f"{row['mac_bytes'] / 1024:8.1f} {row['bmt_bytes'] / 1024:8.1f} "
            f"{row['mispred_bytes'] / 1024:7.1f} {row['l2_miss_rate']:7.1%} "
            f"{row['mdc_hit_rate']:7.1%} {row['dram_utilization_mean']:6.0%} "
            f"{row['stall_cycles']:9,.0f} {row['avg_read_latency']:7.0f}"
        )
    return "\n".join(lines)


def format_phase_breakdown(
    rows: List[dict], title: Optional[str] = None
) -> str:
    """Per-kernel-phase traffic breakdown: per-kind bytes normalised to
    that phase's demand data (the time-resolved Fig. 14 view)."""
    phases: Dict[int, Dict[str, int]] = {}
    for row in rows:
        acc = phases.setdefault(row["kernel"],
                                {name: 0 for name in _BYTE_COLUMNS})
        for name in _BYTE_COLUMNS:
            acc[name] += row[name]
    header = (f"{'phase':>8s} {'data KB':>10s} {'ctr':>7s} {'mac':>7s} "
              f"{'bmt':>7s} {'mispred':>8s} {'meta BW':>8s}")
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    lines.append(header)
    lines.append("-" * len(header))
    totals = {name: 0 for name in _BYTE_COLUMNS}
    for kernel in sorted(phases):
        acc = phases[kernel]
        for name in _BYTE_COLUMNS:
            totals[name] += acc[name]
        lines.append(_phase_row(f"k{kernel}", acc))
    lines.append("-" * len(header))
    lines.append(_phase_row("total", totals))
    return "\n".join(lines)


def _phase_row(label: str, acc: Dict[str, int]) -> str:
    data = acc["data_bytes"] or 1
    meta = (acc["ctr_bytes"] + acc["mac_bytes"] + acc["bmt_bytes"]
            + acc["mispred_bytes"])
    return (f"{label:>8s} {acc['data_bytes'] / 1024:10.1f} "
            f"{acc['ctr_bytes'] / data:7.1%} {acc['mac_bytes'] / data:7.1%} "
            f"{acc['bmt_bytes'] / data:7.1%} "
            f"{acc['mispred_bytes'] / data:8.1%} {meta / data:8.1%}")


# ----------------------------------------------------------------------
# Decision provenance (``repro inspect --decisions``)
# ----------------------------------------------------------------------

def format_decision_timeline(rows: List[dict], limit: int = 12,
                             title: Optional[str] = None) -> str:
    """Render ledger rows (:meth:`~repro.obs.decisions.DecisionLedger.
    to_rows`) as per-region timelines: one block per (run, detector,
    region) in first-decision order, each decision on its own line with
    its cause and the cost charged back to it.  ``limit`` caps the
    lines per region (the head and tail are kept; the elision is
    counted, never silent)."""
    groups: Dict[tuple, List[dict]] = {}
    for row in rows:
        key = (row["run"], row["detector"], row["region"])
        groups.setdefault(key, []).append(row)

    header = (f"  {'cycle':>14s} {'krn':>3s} {'type':<15s} "
              f"{'cause':<18s} {'cost B':>8s} {'xfer':>5s} "
              f"{'stall':>9s}  detail")
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    if not rows:
        lines.append("no decisions recorded")
        return "\n".join(lines)

    def fmt(row: dict) -> str:
        detail = ""
        if row["type"] in ("stream_verdict", "stream_preset"):
            detail = row.get("pattern", "")
            if row.get("flip"):
                detail += f" (predicted {row.get('predicted')})"
        elif row["type"] == "learned_verdict":
            # score -1 marks a still-cold model (no history to score).
            detail = f"{row.get('pattern', '')} score {row.get('score', -1.0):.3f}"
            if row.get("flip"):
                detail += f" (predicted {row.get('predicted')})"
        elif row["type"] == "learned_promote":
            detail = f"score {row.get('score', 0.0):.3f}"
        elif row["type"] == "arm_select":
            detail = (f"arm {row.get('arm', '?')} "
                      f"reward {row.get('reward', 0.0):+.3f}")
        elif row.get("evicted", -1) >= 0:
            detail = f"evicted r{row['evicted']}"
        elif row["type"] == "ctr_overflow":
            detail = f"block {row.get('block', '?')}"
        return (f"  {row['cycle']:14,.0f} {row['kernel']:3d} "
                f"{row['type']:<15s} {row['cause']:<18s} "
                f"{row['cost_bytes']:8,.0f} {row['cost_transfers']:5d} "
                f"{row['stall_cycles']:9,.0f}  {detail}")

    last_run = None
    for key, group in groups.items():
        run, detector, region = key
        if run != last_run:
            lines.append("")
            lines.append(f"run {run}")
            last_run = run
        cost = sum(r["cost_bytes"] for r in group)
        stall = sum(r["stall_cycles"] for r in group)
        lines.append(f" {detector} region {region}: {len(group)} "
                     f"decision(s), {cost / 1024:.1f} KB charged, "
                     f"{stall:,.0f} stall cycles")
        lines.append(header)
        if len(group) <= limit:
            lines.extend(fmt(row) for row in group)
        else:
            head = limit // 2
            tail = limit - head
            lines.extend(fmt(row) for row in group[:head])
            lines.append(f"  ... {len(group) - limit} more ...")
            lines.extend(fmt(row) for row in group[-tail:])
    return "\n".join(lines)


def format_decision_summary(summaries: Dict[str, dict],
                            title: Optional[str] = None) -> str:
    """Render per-scheme ledger summaries
    (:meth:`~repro.obs.decisions.DecisionLedger.summary`) as the
    detector accuracy / misprediction-cost tables: one row per
    (run label, detector), then the per-type cost breakdown.
    ``summaries`` maps a label (``workload/scheme``) to one summary."""
    label_width = max([len("run")] + [len(label) for label in summaries])
    header = (f"{'run'.ljust(label_width)} {'detector':>10s} "
              f"{'decisions':>10s} {'flips':>6s} {'t/o':>5s} "
              f"{'accuracy':>9s} {'cost KB':>9s} {'stall':>11s}")
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    lines.append(header)
    lines.append("-" * len(header))
    for label, summary in summaries.items():
        by_detector = summary.get("by_detector", {})
        if not by_detector:
            lines.append(f"{label.ljust(label_width)} {'-':>10s} "
                         f"{0:10d} {'-':>6s} {'-':>5s} {'-':>9s} "
                         f"{'-':>9s} {'-':>11s}")
        for name in sorted(by_detector):
            acc = by_detector[name]
            accuracy = (1.0 - acc["flips"] / acc["decisions"]
                        if acc["decisions"] else 1.0)
            lines.append(
                f"{label.ljust(label_width)} {name:>10s} "
                f"{acc['decisions']:10d} {acc['flips']:6d} "
                f"{acc['timeouts']:5d} {accuracy:9.1%} "
                f"{acc['cost_bytes'] / 1024:9.1f} "
                f"{acc['stall_cycles']:11,.0f}")
    lines.append("")
    lines.append("cost by decision type:")
    type_header = (f"{'run'.ljust(label_width)} {'type':>14s} "
                   f"{'count':>8s} {'cost KB':>9s} {'stall':>11s}")
    lines.append(type_header)
    lines.append("-" * len(type_header))
    for label, summary in summaries.items():
        for name in sorted(summary.get("by_type", {})):
            block = summary["by_type"][name]
            lines.append(
                f"{label.ljust(label_width)} {name:>14s} "
                f"{block['count']:8d} {block['cost_bytes'] / 1024:9.1f} "
                f"{block['stall_cycles']:11,.0f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Performance observability (host profiling)
# ----------------------------------------------------------------------

def format_host_profile(snapshot: dict, title: Optional[str] = None) -> str:
    """Render a ``host_profile_format`` 2 document (see
    :mod:`repro.perf.hostprof`): one column per run, each layer's share
    of its samples, then its wall time, sample count and the share of
    wall time spent in the sampler itself."""
    from repro.perf.hostprof import LAYERS

    runs = snapshot["runs"]
    width = max([9] + [len(name) for name in runs])

    def row(label: str, cells) -> str:
        return f"{label:10s}" + "".join(f" {cell:>{width}}" for cell in cells)

    header = row("layer", runs)
    lines = [title, "=" * len(header)] if title else []
    lines += [header, "-" * len(header)]
    lines += [row(layer, [f"{run['shares'][layer]:.1%}"
                          for run in runs.values()]) for layer in LAYERS]
    lines.append("-" * len(header))
    lines.append(row("wall ms", [f"{run['wall_s'] * 1e3:.1f}"
                                 for run in runs.values()]))
    lines.append(row("samples", [run["samples"] for run in runs.values()]))
    lines.append(row("sampler", [
        f"{run['sampler_s'] / run['wall_s']:.1%}" if run["wall_s"] else "-"
        for run in runs.values()]))
    return "\n".join(lines)
