"""Validate observability exports (used by CI's smoke jobs).

Checks that a ``--trace`` file is well-formed Chrome trace-event JSON
with MEE operation events on every secure partition, that a
``--metrics-out`` JSONL file's window rows sum back to each run
summary's aggregate traffic counters exactly, and that decision-ledger
exports and workload traces honour their formats.

Usage::

    python -m repro.obs.validate --trace t.json --metrics m.jsonl
    python -m repro.obs.validate --decisions decisions.jsonl
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional, Union


class ValidationError(Exception):
    """An export failed an invariant."""


def load_jsonl(path: Union[str, Path]) -> List[dict]:
    rows = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{line_no}: bad JSON: {exc}") from exc
    return rows


def validate_trace(path: Union[str, Path],
                   expect_partitions: Optional[int] = None) -> dict:
    """Load a trace file; raise :class:`ValidationError` on problems.

    Returns ``{"events": N, "mee_partitions": [...]}``.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValidationError(f"{path}: traceEvents missing or empty")
    for event in events:
        if "ph" not in event or "pid" not in event:
            raise ValidationError(f"{path}: malformed event: {event!r}")
    mee_tids = sorted({
        event["tid"] for event in events
        if event.get("cat") == "mee" and event["ph"] in ("X", "i")
    })
    if expect_partitions is not None:
        missing = [p for p in range(expect_partitions) if p not in mee_tids]
        if missing:
            raise ValidationError(
                f"{path}: no MEE events on partitions {missing}"
            )
    return {"events": len(events), "mee_partitions": mee_tids}


def validate_metrics(path: Union[str, Path]) -> dict:
    """Check window-row sums against each run summary's traffic.

    Returns ``{"rows": N, "runs": {run: window_count}}``.
    """
    rows = load_jsonl(path)
    if not rows or rows[0].get("type") != "meta":
        raise ValidationError(f"{path}: first row must be the meta row")
    windows: dict = {}
    summaries: dict = {}
    for row in rows:
        if row.get("type") == "window":
            windows.setdefault(row["run"], []).append(row)
        elif row.get("type") == "summary":
            summaries[row["run"]] = row
    if not summaries:
        raise ValidationError(f"{path}: no summary rows")
    for run, summary in summaries.items():
        sums = {kind: 0 for kind in ("data", "ctr", "mac", "bmt", "mispred")}
        for row in windows.get(run, []):
            for kind in sums:
                sums[kind] += row[f"{kind}_bytes"]
        expected = summary["traffic"]
        for kind, total in sums.items():
            if total != expected[kind]:
                raise ValidationError(
                    f"{path}: run {run!r}: window {kind} bytes sum to "
                    f"{total}, summary says {expected[kind]}"
                )
    return {"rows": len(rows),
            "runs": {run: len(w) for run, w in windows.items()}}


def validate_decisions(path: Union[str, Path]) -> dict:
    """Check a decision-ledger JSONL export (``--decisions``).

    Enforces the format header (``decisions_format`` + an accurate row
    count), then per row: a known decision type whose ``detector``
    matches the taxonomy, every :data:`~repro.obs.decisions.ROW_FIELDS`
    field present, non-negative numeric cost fields, the 11-float
    feature vector, a contiguous ``seq`` and a monotonically
    non-decreasing ``cycle`` within each ``run`` (one export may hold
    several workload/scheme runs back to back).

    Returns ``{"rows": N, "dropped": N, "types": {type: count},
    "regions": N}``.
    """
    from repro.obs.decisions import (
        DECISION_TYPES,
        DECISIONS_FORMAT,
        ROW_FIELDS,
    )

    lines = load_jsonl(path)
    if not lines:
        raise ValidationError(f"{path}: empty decisions export")
    header = lines[0]
    if header.get("decisions_format") != DECISIONS_FORMAT:
        raise ValidationError(
            f"{path}: bad/missing decisions_format "
            f"(expected {DECISIONS_FORMAT}, "
            f"got {header.get('decisions_format')!r})")
    rows = lines[1:]
    if header.get("rows") != len(rows):
        raise ValidationError(
            f"{path}: header says {header.get('rows')} rows, "
            f"file has {len(rows)}")

    types: dict = {}
    regions: set = set()
    last_cycle: dict = {}
    for i, row in enumerate(rows):
        kind = row.get("type")
        if kind not in DECISION_TYPES:
            raise ValidationError(
                f"{path}: row {i}: unknown decision type {kind!r}")
        missing = [f for f in ROW_FIELDS if f not in row]
        if missing:
            raise ValidationError(
                f"{path}: row {i} ({kind}): missing field(s) "
                f"{', '.join(missing)}")
        if row["detector"] != DECISION_TYPES[kind]:
            raise ValidationError(
                f"{path}: row {i} ({kind}): detector "
                f"{row['detector']!r} does not match the taxonomy "
                f"({DECISION_TYPES[kind]!r})")
        for field in ("cost_bytes", "cost_transfers", "stall_cycles"):
            value = row[field]
            if not isinstance(value, (int, float)) or value < 0:
                raise ValidationError(
                    f"{path}: row {i} ({kind}): {field} must be a "
                    f"non-negative number, got {value!r}")
        fv = row["fv"]
        if not isinstance(fv, list) or len(fv) != 11 or not all(
                isinstance(v, (int, float)) for v in fv):
            raise ValidationError(
                f"{path}: row {i} ({kind}): fv must be the 11-float "
                f"feature vector (see docs/observability.md)")
        if row["seq"] != i:
            raise ValidationError(
                f"{path}: row {i}: seq {row['seq']!r} not contiguous")
        run = row["run"]
        cycle = row["cycle"]
        prev = last_cycle.get(run, float("-inf"))
        if not isinstance(cycle, (int, float)) or cycle < prev:
            raise ValidationError(
                f"{path}: row {i}: cycle {cycle!r} not monotonically "
                f"non-decreasing within run {run!r} (previous {prev})")
        last_cycle[run] = cycle
        types[kind] = types.get(kind, 0) + 1
        regions.add((row["partition"], row["detector"], row["region"]))
    return {"rows": len(rows), "dropped": header.get("dropped", 0),
            "types": types, "regions": len(regions)}


def validate_workload_trace(path: Union[str, Path]) -> dict:
    """Check a workload trace file (v1 JSON or v2 gzip JSONL stream).

    Loads it through :mod:`repro.workloads.trace_io` (which enforces
    format_version, array shapes, kernel ``seq`` continuity and the v2
    end-record totals), then re-runs the workload model's own
    invariants — every access inside a declared buffer, positive
    sector counts — via ``Workload.validate``.

    Returns ``{"format_version", "name", "kernels", "accesses",
    "buffers"}``.
    """
    from repro.workloads.trace_io import (
        TraceFormatError,
        load_workload,
        trace_info,
    )

    try:
        info = trace_info(path)
        load_workload(path)  # full parse + Workload.validate
    except TraceFormatError as exc:
        raise ValidationError(str(exc)) from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: bad workload trace: {exc}") from exc
    return info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="validate repro observability exports")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--metrics", default=None)
    parser.add_argument("--decisions", default=None, metavar="PATH",
                        help="decision-ledger JSONL export to validate "
                             "(repro inspect --decisions --decisions-out)")
    parser.add_argument("--workload-trace", default=None, metavar="PATH",
                        help="workload trace file (v1 JSON or v2 gzip "
                             "JSONL) to validate")
    parser.add_argument("--partitions", type=int, default=None,
                        help="require MEE events on partitions 0..N-1")
    args = parser.parse_args(argv)
    if not (args.trace or args.metrics or args.decisions
            or args.workload_trace):
        parser.error("nothing to validate: pass --trace, --metrics, "
                     "--decisions and/or --workload-trace")
    try:
        if args.trace:
            info = validate_trace(args.trace, args.partitions)
            print(f"{args.trace}: ok ({info['events']} events, MEE on "
                  f"partitions {info['mee_partitions']})")
        if args.metrics:
            info = validate_metrics(args.metrics)
            print(f"{args.metrics}: ok ({info['rows']} rows, "
                  f"windows per run: {info['runs']})")
        if args.decisions:
            info = validate_decisions(args.decisions)
            counts = ", ".join(f"{k}={v}"
                               for k, v in sorted(info["types"].items()))
            print(f"{args.decisions}: ok ({info['rows']} decisions over "
                  f"{info['regions']} regions, {info['dropped']} dropped"
                  f"{': ' + counts if counts else ''})")
        if args.workload_trace:
            info = validate_workload_trace(args.workload_trace)
            print(f"{args.workload_trace}: ok (v{info['format_version']} "
                  f"trace {info['name']!r}: {info['kernels']} kernels, "
                  f"{info['accesses']:,} accesses, "
                  f"{info['buffers']} buffers)")
    except ValidationError as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
