"""The decision ledger: taxonomy, feature vectors, exports, validation.

Unit tests pin the provenance row schema (the learned-policy work
consumes it as training input) and the analytic cost attribution;
integration tests drive the pssm counter family end to end with a
set-conflict workload that actually overflows minor counters.
"""

from __future__ import annotations

import pytest

from repro.common.types import Pattern
from repro.core.streaming import Verdict
from repro.obs.decisions import (
    DECISION_TYPES,
    MAX_ROWS,
    NULL_LEDGER,
    DecisionLedger,
    NullDecisionLedger,
    ROW_FIELDS,
    _mask_features,
)
from repro.obs.validate import ValidationError, validate_decisions


def _ledger(**kwargs) -> DecisionLedger:
    led = DecisionLedger(**kwargs)
    # 8-cycle request overhead, 32 B/cycle channel, 32-block chunks.
    led.configure(request_overhead=8.0, bytes_per_cycle=32.0,
                  blocks_per_chunk=32)
    led.begin_run("wl/scheme")
    return led


def _verdict(chunk=7, pattern=Pattern.STREAM, predicted=Pattern.STREAM,
             **kwargs) -> Verdict:
    defaults = dict(had_write=False, timed_out=False, accesses=32,
                    touched_mask=(1 << 32) - 1, evicted=-1)
    defaults.update(kwargs)
    return Verdict(chunk_id=chunk, pattern=pattern, predicted=predicted,
                   **defaults)


class TestTaxonomy:
    def test_every_type_maps_to_a_detector_family(self):
        assert set(DECISION_TYPES.values()) == {
            "readonly", "streaming", "counter", "mac", "learned"}

    def test_learned_family_types(self):
        learned = {t for t, fam in DECISION_TYPES.items()
                   if fam == "learned"}
        assert learned == {"learned_promote", "learned_demote",
                           "learned_verdict", "arm_select"}

    def test_row_schema_is_stable(self):
        # Documented in docs/observability.md; downstream consumers
        # (validate, reporting) key off these.
        assert ROW_FIELDS == (
            "seq", "run", "cycle", "kernel", "partition", "type",
            "detector", "region", "cause", "cost_bytes",
            "cost_transfers", "stall_cycles", "fv")


class TestMaskFeatures:
    def test_empty_mask(self):
        assert _mask_features(0) == (0.0, 0)

    def test_contiguous_run_is_fully_regular(self):
        assert _mask_features(0b111) == (1.0, 3)
        assert _mask_features(0b111000) == (1.0, 3)  # offset irrelevant

    def test_gappy_mask_scores_popcount_over_span(self):
        # bits {0, 4}: popcount 2 over a span of 5.
        stride, popcount = _mask_features(0b10001)
        assert popcount == 2
        assert stride == pytest.approx(2 / 5)

    def test_single_block_is_not_a_stride(self):
        # One touched block carries no stride evidence: regularity is
        # 0.0, not the 1.0 the ungated contiguity check used to give —
        # a lone block and a full streaming run must not look alike to
        # the learned features.
        assert _mask_features(0b1) == (0.0, 1)
        assert _mask_features(0b1000) == (0.0, 1)  # offset irrelevant
        # Two adjacent blocks are the smallest fully regular run.
        assert _mask_features(0b11) == (1.0, 2)


class TestNullLedger:
    def test_disabled_and_inert(self):
        assert NullDecisionLedger.enabled is False
        assert NULL_LEDGER.ro_mark(0.0, 0, 0, 1, "x") is None
        assert NULL_LEDGER.begin_run("anything") is None

    def test_dunders_still_raise(self):
        with pytest.raises(AttributeError):
            NULL_LEDGER.__getstate_nonsense__  # noqa: B018


class TestAppendPath:
    def test_stall_model(self):
        led = _ledger()
        # 2 transfers * 8 + 64 B / 32 B-per-cycle = 18 cycles.
        assert led.stall_cycles(64.0, 2) == pytest.approx(18.0)

    def test_row_contents_and_cost_attribution(self):
        led = _ledger()
        led.ctr_overflow(100.0, partition=3, kernel=1, block=42,
                         line=5, cost_bytes=64.0, cost_transfers=2)
        (row,) = led.rows
        assert all(field in row for field in ROW_FIELDS)
        assert (row["type"], row["detector"]) == ("ctr_overflow", "counter")
        assert (row["region"], row["block"]) == (5, 42)
        assert row["stall_cycles"] == pytest.approx(18.0)
        assert len(row["fv"]) == 11

    def test_feature_vector_tracks_region_history(self):
        led = _ledger()
        led.stream_verdict(100.0, 0, 0, _verdict(), 0.0, 0)
        # Second decision 5 cycles later: gap 5 lands in bucket 1
        # ([4, 16)); a write flips the read ratio to 0.5.
        led.stream_verdict(105.0, 0, 0,
                           _verdict(had_write=True, touched_mask=0b10001),
                           0.0, 0)
        first, second = led.rows
        assert first["fv"][0] == 1.0        # all-read so far
        assert second["fv"][0] == 0.5       # one write in two decisions
        assert second["fv"][2] == pytest.approx(
            (32 / 32 + 2 / 32) / 2)          # mean touch density
        assert second["fv"][3 + 1] == 1.0   # the single gap, bucket 1

    def test_regions_are_independent(self):
        led = _ledger()
        led.ro_mark(10.0, 0, 0, 1, "host_copy")
        led.ro_mark(20.0, 1, 0, 1, "host_copy")  # other partition
        a, b = led.rows
        # No cross-region gap: each region saw its first decision.
        assert a["fv"][3:] == [0.0] * 8
        assert b["fv"][3:] == [0.0] * 8

    def test_begin_run_resets_features_not_rows(self):
        led = _ledger()
        led.ro_mark(10.0, 0, 0, 1, "host_copy")
        led.begin_run("wl/other")
        led.ro_mark(5.0, 0, 0, 1, "host_copy")
        assert [r["seq"] for r in led.rows] == [0, 1]
        # The second run's row sees a fresh region (no gap histogram).
        assert led.rows[1]["fv"][3:] == [0.0] * 8

    def test_overflow_degrades_to_counted_drop(self):
        led = _ledger(max_rows=1)
        led.ro_mark(1.0, 0, 0, 1, "host_copy")
        led.ro_mark(2.0, 0, 0, 2, "host_copy")
        assert len(led.rows) == 1
        assert led.dropped == 1
        assert led.summary()["dropped"] == 1
        with pytest.raises(ValueError):
            DecisionLedger(max_rows=0)
        assert MAX_ROWS >= 100_000

    def test_reset(self):
        led = _ledger()
        led.ro_mark(1.0, 0, 0, 1, "host_copy")
        led.reset()
        assert not led.rows and led.dropped == 0
        led.ro_mark(1.0, 0, 0, 1, "host_copy")
        assert led.rows[0]["seq"] == 0


class TestSummary:
    def _two_run_ledger(self) -> DecisionLedger:
        led = _ledger()
        led.begin_run("wl/a")
        led.stream_verdict(10.0, 0, 0,
                           _verdict(pattern=Pattern.RANDOM,
                                    predicted=Pattern.STREAM,
                                    timed_out=True),
                           64.0, 1)
        led.begin_run("wl/b")
        led.ctr_overflow(10.0, 0, 0, block=1, line=2,
                         cost_bytes=128.0, cost_transfers=2)
        return led

    def test_run_filter(self):
        led = self._two_run_ledger()
        assert led.summary()["total"] == 2
        a = led.summary(run="wl/a")
        assert a["total"] == 1 and a["regions"] == 1
        assert set(a["by_type"]) == {"stream_verdict"}
        assert set(led.summary(run="wl/b")["by_type"]) == {"ctr_overflow"}

    def test_flips_and_timeouts_counted(self):
        led = self._two_run_ledger()
        streaming = led.summary()["by_detector"]["streaming"]
        assert streaming["flips"] == 1
        assert streaming["timeouts"] == 1


class TestExports:
    def test_jsonl_round_trip_validates(self, tmp_path):
        led = self._populated()
        path = led.write_jsonl(tmp_path / "d.jsonl")
        report = validate_decisions(path)
        assert report["rows"] == len(led.rows)
        assert report["dropped"] == 0
        assert path.read_text(encoding="utf-8") == led.export_text()

    def test_validator_rejects_unknown_type(self, tmp_path):
        led = self._populated()
        led.rows[0]["type"] = "coin_flip"
        path = led.write_jsonl(tmp_path / "bad.jsonl")
        with pytest.raises(ValidationError, match="coin_flip"):
            validate_decisions(path)

    def test_trace_export_spans_and_instants(self):
        led = self._populated()
        calls = []

        class Tracer:
            def complete(self, *args, **kwargs):
                calls.append(("complete", args, kwargs))

            def instant(self, *args, **kwargs):
                calls.append(("instant", args, kwargs))

        led.export_trace(Tracer())
        kinds = [kind for kind, _, _ in calls]
        # Charged decisions become spans, free ones become instants.
        assert "complete" in kinds and "instant" in kinds
        assert len(calls) == len(led.rows)

    @staticmethod
    def _populated() -> DecisionLedger:
        led = _ledger()
        led.ro_mark(1.0, 0, 0, 1, "host_copy")
        led.stream_verdict(20.0, 0, 0, _verdict(), 0.0, 0)
        led.ctr_overflow(30.0, 1, 0, block=9, line=3,
                         cost_bytes=64.0, cost_transfers=1)
        return led


class TestEndToEnd:
    def test_ctr_hammer_overflows_pssm_family_counters(self):
        """The acceptance grid: a set-conflict workload must produce
        counter-family decisions (ctr_overflow) under pssm, and the
        richer shm stack adds readonly + streaming decisions."""
        from repro.cli import CTR_HAMMER_SPEC
        from repro.sim.runner import Runner
        from repro.workloads.compose import build_workload

        ledger = DecisionLedger()
        runner = Runner(scale=0.1, ledger=ledger)
        runner.add_workload(build_workload(CTR_HAMMER_SPEC, scale=1.0))
        for scheme in ("pssm", "shm"):
            runner.run("ctr-hammer", scheme)

        pssm = ledger.summary(run="ctr-hammer/pssm")
        assert pssm["by_type"].get("ctr_overflow", {}).get("count", 0) > 0
        assert pssm["by_detector"]["counter"]["stall_cycles"] > 0

        shm = ledger.summary(run="ctr-hammer/shm")
        assert {"counter", "readonly", "streaming"} <= set(
            shm["by_detector"])

    def test_suite_run_decisions_validate(self, tmp_path):
        from repro.sim.runner import Runner

        ledger = DecisionLedger()
        Runner(scale=0.05, ledger=ledger).run("atax", "shm")
        report = validate_decisions(ledger.write_jsonl(tmp_path / "a.jsonl"))
        assert report["rows"] > 0
        assert set(report["types"]) <= set(DECISION_TYPES)
