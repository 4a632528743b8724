"""Security decision provenance: the append-only :class:`DecisionLedger`.

The simulator's detectors and policy stacks make *decisions* — promote
a region to read-only, classify a chunk as streaming, re-encrypt a
counter line, re-check the other MAC granularity — and until now only
their aggregate :class:`~repro.common.types.PredictionStats` survived a
run.  The ledger records each decision as a typed row with a cycle
stamp, region identity, cause, and the *cost charged back to it*: the
extra DRAM bytes and transfers the decision emitted (re-encryption,
shared-counter propagation, verdict remediation, mispredict rechecks)
plus the analytic stall-cycle equivalent of that traffic.

Decisions fire at decision granularity — thousands of events per run,
not millions of accesses, unlike the per-access
:class:`~repro.obs.observer.Observer` — and an attached ledger leaves
the MEE on the code path an unledgered run takes.  Instrumented code
snapshots ``ledger.enabled`` into a local boolean (``mee._led``) and
pays one branch per decision site; :data:`NULL_LEDGER` is the disabled default,
mirroring ``NULL_OBSERVER``.

Every row also carries the region's online **feature vector**,
recomputed at decision time from ledger-held per-region state.  The
schema is stable (see ``docs/observability.md``) because the planned
learned-policy work consumes it as training input:

``fv = [read_ratio, stride_regularity, touch_density, g0..g7]``

* ``read_ratio`` — fraction of this region's decisions triggered by
  reads (1.0 until a write-triggered decision lands);
* ``stride_regularity`` — running mean of per-verdict mask
  contiguity: 1.0 when the touched blocks form one contiguous run,
  otherwise popcount/span of the touched bits;
* ``touch_density`` — running mean of popcount(touched_mask) /
  blocks_per_chunk over this region's verdicts;
* ``g0..g7`` — normalised inter-decision gap histogram, bucket ``i``
  covering gaps in ``[4^i, 4^(i+1))`` cycles (``g7`` open-ended).

Determinism: rows are appended in issue order (cycles are globally
non-decreasing), all arithmetic is plain int/float, and
:meth:`DecisionLedger.write_jsonl` serialises with sorted keys — the
canonical export is byte-identical between the batch loop and the
per-access reference drive, serial vs pool, and under any
``PYTHONHASHSEED`` (pinned by the determinism suite).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Ledger export format version (first line of the canonical JSONL).
DECISIONS_FORMAT = 1

#: Decision taxonomy: type -> the detector/policy family it belongs to.
#: ``repro.obs.validate --decisions`` rejects unknown types.
DECISION_TYPES: Dict[str, str] = {
    "ro_mark": "readonly",          # region promoted to read-only
    "ro_clear": "readonly",         # region demoted by a host copy
    "ro_transition": "readonly",    # store hit a predicted-RO region
    "stream_verdict": "streaming",  # MAT classified a chunk
    "stream_preset": "streaming",   # oracle preloaded a verdict
    "ctr_overflow": "counter",      # minor-counter overflow re-encrypt
    "mac_recheck": "mac",           # dual-granularity stale re-check
    "learned_promote": "learned",   # model promoted a region read-only
    "learned_demote": "learned",    # store demoted a learned promotion
    "learned_verdict": "learned",   # model prediction scored at verdict
    "arm_select": "learned",        # bandit chose a protection arm
}

#: Fields present on every row (validated post hoc).
ROW_FIELDS = ("seq", "run", "cycle", "kernel", "partition", "type",
              "detector", "region", "cause", "cost_bytes",
              "cost_transfers", "stall_cycles", "fv")

#: Default cap on retained rows (a runaway workload degrades to a
#: counted drop, not unbounded memory).
MAX_ROWS = 1_000_000

#: Inter-decision gap histogram buckets (log base 4).
_GAP_BUCKETS = 8


def _noop(*_args: Any, **_kwargs: Any) -> None:
    return None


class NullDecisionLedger:
    """The disabled ledger: every record method is a shared no-op.

    Mirrors :class:`~repro.obs.observer.NullObserver` — instrumented
    code holds a ledger unconditionally and snapshots ``enabled`` into
    a local boolean, so the disabled path costs one branch per
    decision site and nothing per access.
    """

    enabled = False

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        return _noop


NULL_LEDGER = NullDecisionLedger()


class _RegionState:
    """Per-(partition, detector, region) online feature accumulator.

    Shared with :mod:`repro.core.policies.learned`: the learned
    detectors keep their own banks of these so the fv they train on is
    byte-for-byte the schema the ledger exports.
    """

    __slots__ = ("decisions", "writes", "stride_sum", "stride_n",
                 "touch_sum", "touch_n", "last_cycle", "gaps")

    def __init__(self) -> None:
        self.decisions = 0
        self.writes = 0
        self.stride_sum = 0.0
        self.stride_n = 0
        self.touch_sum = 0.0
        self.touch_n = 0
        self.last_cycle = -1.0
        self.gaps = [0] * _GAP_BUCKETS

    def observe(self, cycle: float, is_write: bool, mask: int,
                blocks_per_chunk: int) -> None:
        """Fold one decision into the accumulator (``mask < 0`` means
        the decision carries no touched-block mask)."""
        self.decisions += 1
        if is_write:
            self.writes += 1
        if mask >= 0:
            stride, popcount = _mask_features(mask)
            self.stride_sum += stride
            self.stride_n += 1
            self.touch_sum += popcount / blocks_per_chunk
            self.touch_n += 1
        if self.last_cycle >= 0.0:
            gap = int(cycle - self.last_cycle)
            bucket = 0
            while gap >= 4 and bucket < _GAP_BUCKETS - 1:
                gap >>= 2
                bucket += 1
            self.gaps[bucket] += 1
        self.last_cycle = cycle

    def features(self) -> List[float]:
        """The region's current 11-float feature vector."""
        n = self.decisions
        gap_total = n - 1
        return [
            round(1.0 - self.writes / n, 6) if n else 1.0,
            round(self.stride_sum / self.stride_n, 6)
            if self.stride_n else 0.0,
            round(self.touch_sum / self.touch_n, 6)
            if self.touch_n else 0.0,
        ] + [
            round(count / gap_total, 6) if gap_total else 0.0
            for count in self.gaps
        ]


def _mask_features(mask: int) -> Tuple[float, int]:
    """(stride_regularity, popcount) of one touched-block mask.

    Regularity is gated on popcount >= 2: a single touched block is
    not evidence of a stride, so it scores 0.0 — without the gate a
    one-block mask and a full contiguous streaming run both scored
    1.0, which the learned features cannot afford to conflate.
    """
    if mask <= 0:
        return 0.0, 0
    popcount = bin(mask).count("1")
    if popcount < 2:
        return 0.0, popcount
    tz = (mask & -mask).bit_length() - 1
    shifted = mask >> tz
    if shifted & (shifted + 1) == 0:  # one contiguous run of bits
        return 1.0, popcount
    span = shifted.bit_length()
    return popcount / span, popcount


class DecisionLedger:
    """A typed, append-only record of security-metadata decisions.

    Attach one to a :class:`~repro.sim.runner.Runner` (or pass it to
    :class:`~repro.sim.gpu.GPUSimulator`); the MEEs snapshot it at
    construction and call the ``record_*`` methods at decision
    sites.  Costs arrive pre-measured from the
    MEE's emission scope (:meth:`~repro.core.mee.MemoryEncryptionEngine`
    ``_led_begin``/``_led_end``); the ledger converts them to stall
    cycles analytically: ``transfers * request_overhead +
    bytes / bytes_per_cycle`` (charged channel occupancy, excluding
    turnarounds) — deterministic and identical across emission modes.
    """

    enabled = True

    def __init__(self, max_rows: int = MAX_ROWS) -> None:
        if max_rows < 1:
            raise ValueError("max_rows must be at least 1")
        self.max_rows = max_rows
        self.rows: List[dict] = []
        self.dropped = 0
        self._run = "?"
        self._seq = 0
        # Analytic stall parameters; GPUSimulator calls configure().
        self._request_overhead = 0.0
        self._inv_bpc = 0.0
        self._blocks_per_chunk = 1
        self._regions: Dict[Tuple[int, str, int], _RegionState] = {}

    # -- wiring --------------------------------------------------------

    def configure(self, request_overhead: float, bytes_per_cycle: float,
                  blocks_per_chunk: int) -> None:
        """Pin the analytic stall-model parameters (from
        :class:`~repro.common.config.GPUConfig` /
        :class:`~repro.common.config.DetectorConfig`)."""
        self._request_overhead = float(request_overhead)
        self._inv_bpc = (1.0 / float(bytes_per_cycle)
                         if bytes_per_cycle else 0.0)
        self._blocks_per_chunk = max(1, int(blocks_per_chunk))

    def begin_run(self, run: str) -> None:
        """Label subsequent rows with ``workload/scheme``.

        Feature vectors are per run: the region accumulators reset
        here, while rows and the sequence counter keep growing so one
        ledger can hold several back-to-back runs (``repro inspect
        --decisions`` over a scheme list) with globally contiguous
        ``seq`` and per-run cycle monotonicity."""
        self._run = run
        self._regions.clear()

    def stall_cycles(self, cost_bytes: float, cost_transfers: int) -> float:
        return (cost_transfers * self._request_overhead
                + cost_bytes * self._inv_bpc)

    # -- the append path ----------------------------------------------

    def _append(self, cycle: float, partition: int, kernel: int,
                dtype: str, region: int, cause: str, is_write: bool,
                cost_bytes: float, cost_transfers: int,
                extra: Optional[dict] = None,
                mask: int = -1) -> None:
        detector = DECISION_TYPES[dtype]
        state = self._regions.setdefault(
            (partition, detector, region), _RegionState())
        state.observe(cycle, is_write, mask, self._blocks_per_chunk)
        if len(self.rows) >= self.max_rows:
            self.dropped += 1
            return
        fv = state.features()
        row = {
            "seq": self._seq,
            "run": self._run,
            "cycle": cycle,
            "kernel": kernel,
            "partition": partition,
            "type": dtype,
            "detector": detector,
            "region": region,
            "cause": cause,
            "cost_bytes": cost_bytes,
            "cost_transfers": cost_transfers,
            "stall_cycles": round(
                self.stall_cycles(cost_bytes, cost_transfers), 6),
            "fv": fv,
        }
        if extra:
            row.update(extra)
        self._seq += 1
        self.rows.append(row)

    # -- record methods (one per decision type) ------------------------

    def ro_mark(self, cycle: float, partition: int, kernel: int,
                region: int, cause: str, evicted: int = -1) -> None:
        """A region promoted to read-only (host copy at init, the reset
        API, or the oracle); ``evicted`` names a different region whose
        bit-vector slot this promotion overwrote (aliasing)."""
        self._append(cycle, partition, kernel, "ro_mark", region, cause,
                     False, 0.0, 0, {"evicted": evicted})

    def ro_clear(self, cycle: float, partition: int, kernel: int,
                 region: int, cause: str, evicted: int = -1) -> None:
        """A region demoted (marked written) by a mid-run host copy."""
        self._append(cycle, partition, kernel, "ro_clear", region, cause,
                     True, 0.0, 0, {"evicted": evicted})

    def ro_transition(self, cycle: float, partition: int, kernel: int,
                      region: int, evicted: int, cost_bytes: float,
                      cost_transfers: int) -> None:
        """A store hit a predicted-read-only region: the detector
        transitioned and the shared counter was propagated into the
        region's counter lines (the charged cost)."""
        self._append(cycle, partition, kernel, "ro_transition", region,
                     "store", True, cost_bytes, cost_transfers,
                     {"evicted": evicted})

    def stream_verdict(self, cycle: float, partition: int, kernel: int,
                       verdict: Any, cost_bytes: float,
                       cost_transfers: int) -> None:
        """A MAT delivered a chunk classification; the charged cost is
        the verdict's remediation (MAC rebuilds, mispredict refetches).
        ``verdict`` is a :class:`~repro.core.streaming.Verdict`."""
        pattern = verdict.pattern.value
        predicted = verdict.predicted.value
        self._append(
            cycle, partition, kernel, "stream_verdict", verdict.chunk_id,
            "timeout" if verdict.timed_out else "monitor_complete",
            bool(verdict.had_write), cost_bytes, cost_transfers,
            {
                "pattern": pattern,
                "predicted": predicted,
                "flip": pattern != predicted,
                "timed_out": bool(verdict.timed_out),
                "accesses": verdict.accesses,
                "touched_mask": verdict.touched_mask,
                "evicted": verdict.evicted,
            },
            mask=verdict.touched_mask)

    def stream_preset(self, cycle: float, partition: int, kernel: int,
                      chunk: int, pattern: str) -> None:
        """The oracle preloaded a chunk verdict at a kernel boundary."""
        self._append(cycle, partition, kernel, "stream_preset", chunk,
                     "oracle", False, 0.0, 0, {"pattern": pattern})

    def ctr_overflow(self, cycle: float, partition: int, kernel: int,
                     block: int, line: int, cost_bytes: float,
                     cost_transfers: int) -> None:
        """A minor counter overflowed: the covering counter line was
        re-encrypted (read + write back every covered block)."""
        self._append(cycle, partition, kernel, "ctr_overflow", line,
                     "minor_overflow", True, cost_bytes, cost_transfers,
                     {"block": block})

    def mac_recheck(self, cycle: float, partition: int, kernel: int,
                    chunk: int, cause: str, cost_bytes: float,
                    cost_transfers: int) -> None:
        """Dual-granularity MAC read a stale granularity and fell back
        to the other one; ``cause`` is ``stale_chunk_mac`` or
        ``stale_block_macs``."""
        self._append(cycle, partition, kernel, "mac_recheck", chunk,
                     cause, False, cost_bytes, cost_transfers)

    # -- learned-policy provenance (repro.core.policies.learned) -------
    #
    # Learned rows carry zero cost: the remedial traffic a learned
    # decision triggers is already charged to its streaming/readonly
    # row, so the learned family contributes accuracy (flips), not a
    # second copy of the cost.

    def learned_promote(self, cycle: float, partition: int, kernel: int,
                        region: int, score: float) -> None:
        """The learned read-only model promoted a region the host never
        marked; ``score`` is the model's confidence at promotion."""
        self._append(cycle, partition, kernel, "learned_promote", region,
                     "model", False, 0.0, 0, {"score": score})

    def learned_demote(self, cycle: float, partition: int, kernel: int,
                       region: int) -> None:
        """A store hit a learned-promoted region: the promotion was a
        misprediction (the propagation cost rides the accompanying
        ``ro_transition`` row)."""
        self._append(cycle, partition, kernel, "learned_demote", region,
                     "store", True, 0.0, 0, {"flip": True})

    def learned_verdict(self, cycle: float, partition: int, kernel: int,
                        chunk: int, predicted: str, pattern: str,
                        score: float) -> None:
        """The learned streaming model's prediction scored against the
        MAT verdict that just landed (``score`` is the model's
        streaming probability before this verdict trained it; -1 while
        the model is still cold)."""
        self._append(cycle, partition, kernel, "learned_verdict", chunk,
                     "verdict", False, 0.0, 0,
                     {"predicted": predicted, "pattern": pattern,
                      "flip": predicted != pattern, "score": score})

    def arm_select(self, cycle: float, partition: int, kernel: int,
                   region: int, arm: str, reward: float) -> None:
        """The contextual bandit closed a region's epoch and chose its
        next protection arm; ``reward`` is the closing epoch's mean
        per-access reward (savings minus charged stall)."""
        self._append(cycle, partition, kernel, "arm_select", region,
                     "epoch", False, 0.0, 0,
                     {"arm": arm, "reward": reward})

    # -- exports -------------------------------------------------------

    def to_rows(self) -> List[dict]:
        """The rows in append (issue) order — the canonical sequence."""
        return list(self.rows)

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Canonical JSONL export: a format header line, then one row
        per line with sorted keys — byte-stable for a given run."""
        import json

        out = Path(path)
        with out.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"decisions_format": DECISIONS_FORMAT,
                 "rows": len(self.rows), "dropped": self.dropped},
                sort_keys=True, separators=(",", ":")) + "\n")
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True,
                                        separators=(",", ":")) + "\n")
        return out

    def export_text(self) -> str:
        """The canonical export as one string (determinism tests)."""
        import json

        lines = [json.dumps(
            {"decisions_format": DECISIONS_FORMAT,
             "rows": len(self.rows), "dropped": self.dropped},
            sort_keys=True, separators=(",", ":"))]
        lines.extend(json.dumps(row, sort_keys=True,
                                separators=(",", ":"))
                     for row in self.rows)
        return "\n".join(lines) + "\n"

    def summary(self, run: Optional[str] = None) -> dict:
        """Aggregate per-detector/per-type view (JSON-safe): decision
        counts, verdict flips/timeouts, and the charged cost — the
        payload campaign cells ship into the manifest.  ``run``
        restricts the aggregate to one run label when the ledger holds
        several back-to-back runs."""
        rows = (self.rows if run is None
                else [r for r in self.rows if r["run"] == run])
        by_type: Dict[str, dict] = {}
        by_detector: Dict[str, dict] = {}
        for row in rows:
            t = by_type.setdefault(row["type"], {
                "count": 0, "cost_bytes": 0.0, "stall_cycles": 0.0})
            t["count"] += 1
            t["cost_bytes"] += row["cost_bytes"]
            t["stall_cycles"] += row["stall_cycles"]
            d = by_detector.setdefault(row["detector"], {
                "decisions": 0, "flips": 0, "timeouts": 0,
                "cost_bytes": 0.0, "stall_cycles": 0.0})
            d["decisions"] += 1
            d["cost_bytes"] += row["cost_bytes"]
            d["stall_cycles"] += row["stall_cycles"]
            if row.get("flip"):
                d["flips"] += 1
            if row.get("timed_out"):
                d["timeouts"] += 1
        for block in list(by_type.values()) + list(by_detector.values()):
            block["cost_bytes"] = round(block["cost_bytes"], 6)
            block["stall_cycles"] = round(block["stall_cycles"], 6)
        return {
            "decisions_format": DECISIONS_FORMAT,
            "total": len(rows),
            "dropped": self.dropped,
            "regions": len({(r["partition"], r["detector"], r["region"])
                            for r in rows}),
            "by_type": by_type,
            "by_detector": by_detector,
        }

    def export_trace(self, tracer: Any) -> None:
        """Emit the rows into a
        :class:`~repro.obs.tracing.ChromeTracer`: decisions with a
        charged cost become complete spans (duration = charged stall),
        zero-cost decisions become instants, all on the owning
        partition's thread of the run's process track."""
        for row in self.rows:
            args = {"region": row["region"], "cause": row["cause"],
                    "detector": row["detector"]}
            if "pattern" in row:
                args["pattern"] = row["pattern"]
            if row["stall_cycles"] > 0.0:
                args["cost_bytes"] = row["cost_bytes"]
                tracer.complete(row["run"], row["partition"], row["type"],
                                row["cycle"], row["stall_cycles"],
                                cat="decision", args=args)
            else:
                tracer.instant(row["run"], row["partition"], row["type"],
                               row["cycle"], cat="decision", args=args)

    def reset(self) -> None:
        """Drop all rows and feature state (the run label survives)."""
        self.rows.clear()
        self._regions.clear()
        self.dropped = 0
        self._seq = 0
