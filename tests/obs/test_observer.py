"""Observer integration: read-only observation, exact reconstruction,
trace coverage and the export/validate round trip."""

import hashlib
import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.config import GPUConfig, SimConfig
from repro.common.types import Scheme
from repro.eval.results_io import serialize_run_result
from repro.obs.observer import NULL_OBSERVER, NullObserver, Observer
from repro.obs.tracing import ChromeTracer
from repro.obs.validate import (
    ValidationError,
    validate_metrics,
    validate_trace,
)
from repro.sim.runner import Runner
from tests.conftest import build_tiny_streaming


class TestNullObserver:
    def test_disabled(self):
        assert NULL_OBSERVER.enabled is False

    def test_any_hook_is_a_noop(self):
        assert NULL_OBSERVER.traffic(0.0, 0, "data", 64, False) is None
        assert NULL_OBSERVER.some_future_hook(1, 2, 3, key="x") is None

    def test_dunder_lookup_still_raises(self):
        # Missing dunders must raise (protocol probes like pickle's
        # __reduce_ex__ machinery rely on AttributeError, not a noop).
        with pytest.raises(AttributeError):
            getattr(NULL_OBSERVER, "__wrapped__")

    def test_picklable(self):
        # sim.parallel ships runners (holding NULL_OBSERVER) to workers.
        clone = pickle.loads(pickle.dumps(NullObserver()))
        assert clone.enabled is False


@pytest.fixture(scope="module")
def observed_run():
    """One tiny SHM run, observed; plus the same run unobserved."""
    workload = build_tiny_streaming()
    plain = Runner()
    plain.add_workload(workload)
    bare = plain.run(workload.name, Scheme.SHM)

    observer = Observer(tracer=ChromeTracer(), window_cycles=1000.0)
    runner = Runner(observer=observer)
    runner.add_workload(workload)
    result = runner.run(workload.name, Scheme.SHM)
    return observer, result, bare


class TestReadOnlyObservation:
    def test_observation_does_not_change_the_simulation(self, observed_run):
        observer, result, bare = observed_run
        assert result.cycles == bare.cycles
        assert result.instructions == bare.instructions
        assert result.traffic.data_bytes == bare.traffic.data_bytes
        assert result.traffic.counter_bytes == bare.traffic.counter_bytes
        assert result.traffic.mac_bytes == bare.traffic.mac_bytes
        assert result.traffic.bmt_bytes == bare.traffic.bmt_bytes
        assert result.l2.misses == bare.l2.misses


class TestCustomSchemeRunLabels:
    def test_custom_scheme_keeps_its_own_run_label(self):
        # A custom registry scheme observed alongside its base design
        # must land under its registry name: base-enum labels used to
        # collide the two runs, doubling every window sum and failing
        # metrics validation.
        from repro.core.policies import register_scheme

        register_scheme("shm_label_test", base=Scheme.SHM)
        workload = build_tiny_streaming()
        observer = Observer(window_cycles=1000.0)
        runner = Runner(observer=observer)
        runner.add_workload(workload)
        runner.run(workload.name, "shm_label_test")
        runner.run(workload.name, Scheme.SHM)
        assert f"{workload.name}/shm_label_test" in observer.series
        assert f"{workload.name}/shm" in observer.series


class TestExactReconstruction:
    def test_window_totals_match_aggregate_traffic(self, observed_run):
        observer, result, _ = observed_run
        run = f"{result.workload}/{result.scheme.value}"
        totals = observer.series[run].totals()
        assert totals["data_bytes"] == result.traffic.data_bytes
        assert totals["ctr_bytes"] == result.traffic.counter_bytes
        assert totals["mac_bytes"] == result.traffic.mac_bytes
        assert totals["bmt_bytes"] == result.traffic.bmt_bytes
        assert totals["mispred_bytes"] == result.traffic.misprediction_bytes

    def test_registry_counters_match_aggregate_traffic(self, observed_run):
        observer, result, _ = observed_run
        snap = observer.metrics.snapshot()["counters"]
        assert snap["traffic.data_bytes"] == result.traffic.data_bytes
        assert snap["traffic.ctr_bytes"] == result.traffic.counter_bytes

    def test_latency_histogram_matches_result(self, observed_run):
        observer, result, _ = observed_run
        hist = observer.metrics.histogram("sim.demand_read_latency")
        assert hist.count == result.latency.count
        assert hist.total == pytest.approx(result.latency.total_cycles)
        assert hist.percentile(95) == result.latency.p95


class TestTraceCoverage:
    def test_mee_events_on_every_partition(self, observed_run):
        observer, _, _ = observed_run
        partitions = GPUConfig().num_partitions
        mee_tids = {e["tid"] for e in observer.tracer.events
                    if e.get("cat") == "mee" and e["ph"] in ("X", "i")}
        assert set(range(partitions)) <= mee_tids

    def test_calibration_rounds_traced(self, observed_run):
        observer, _, _ = observed_run
        rounds = [e for e in observer.tracer.events
                  if e.get("cat") == "runner" and e["ph"] == "X"]
        assert rounds
        assert observer.metrics.counter("runner.calibration_rounds").value \
            == len(rounds)

    def test_frontend_stall_spans_present(self, observed_run):
        observer, _, _ = observed_run
        stalls = [e for e in observer.tracer.events
                  if e.get("name") == "frontend_stall"]
        assert stalls
        assert all(e["dur"] >= 0 for e in stalls)


class TestCacheBypass:
    def test_observer_disables_result_caching(self):
        workload = build_tiny_streaming()
        observer = Observer(timeseries=False)
        runner = Runner(observer=observer)
        runner.add_workload(workload)
        runner.run(workload.name, Scheme.PSSM)
        assert (workload.name, Scheme.PSSM) not in runner._results


class TestExportRoundTrip:
    def test_written_files_pass_validation(self, observed_run, tmp_path):
        observer, _, _ = observed_run
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        observer.write_trace(trace)
        rows = observer.write_metrics(metrics)
        assert rows >= 4  # meta + windows + summary + registry

        partitions = GPUConfig().num_partitions
        info = validate_trace(trace, expect_partitions=partitions)
        assert info["events"] > 0
        info = validate_metrics(metrics)
        assert info["runs"]

    def test_metrics_rows_structure(self, observed_run):
        observer, result, _ = observed_run
        rows = observer.metrics_rows()
        assert rows[0]["type"] == "meta"
        assert rows[-1]["type"] == "metrics"
        types = {r["type"] for r in rows}
        assert types == {"meta", "window", "summary", "metrics"}
        run = f"{result.workload}/{result.scheme.value}"
        assert run in rows[0]["runs"]

    def test_write_trace_without_tracer_raises(self, tmp_path):
        with pytest.raises(ValueError):
            Observer().write_trace(tmp_path / "x.json")


class TestValidatorFailures:
    def test_trace_not_json(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text("not json")
        with pytest.raises(ValidationError):
            validate_trace(p)

    def test_trace_empty_events(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValidationError):
            validate_trace(p)

    def test_trace_missing_partition(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 0, "cat": "mee",
             "name": "counter_fetch", "ts": 0, "dur": 1},
        ]}))
        with pytest.raises(ValidationError):
            validate_trace(p, expect_partitions=2)

    def test_metrics_missing_meta_row(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(json.dumps({"type": "summary", "run": "a"}) + "\n")
        with pytest.raises(ValidationError):
            validate_metrics(p)

    def test_metrics_sum_mismatch(self, tmp_path):
        window = {"type": "window", "run": "a", "data_bytes": 100,
                  "ctr_bytes": 0, "mac_bytes": 0, "bmt_bytes": 0,
                  "mispred_bytes": 0}
        summary = {"type": "summary", "run": "a", "traffic": {
            "data": 999, "ctr": 0, "mac": 0, "bmt": 0, "mispred": 0}}
        p = tmp_path / "m.jsonl"
        p.write_text("\n".join(json.dumps(r) for r in (
            {"type": "meta"}, window, summary)) + "\n")
        with pytest.raises(ValidationError):
            validate_metrics(p)


# ---------------------------------------------------------------------------
# Pinned exports: what a fixed set of observed cells writes, byte for byte
# ---------------------------------------------------------------------------

#: ``(DRAM scheduler, workload, scheme)`` of every pinned observed cell.
PINNED_CELLS = [
    ("fifo", "atax", "shm"),
    ("fifo", "bfs", "naive"),
    ("fifo", "bfs", "pssm"),
    ("fifo", "mri-gridding", "shm_vl2"),
    ("fifo", "backprop", "shm_bandit"),
    ("fifo", "lbm", "pssm_learned"),
    ("critical_first", "bfs", "shm"),
    ("banked", "bfs", "shm"),
]
PINNED_SCALE = 0.05
PINNED_WINDOW_CYCLES = 2000.0
#: Cell -> sha256 of its metrics JSONL, Chrome trace and serialised
#: ``RunResult``.
PINNED_DIGESTS = Path(__file__).with_name("observer_exports.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _serialized(result) -> str:
    return json.dumps(serialize_run_result(result), sort_keys=True)


def _pinned_cell(scheduler: str, workload: str, scheme: str, tmp: Path):
    """Run one pinned cell observed, then unobserved on the same
    calibration.  Returns the observed run's export digests and both
    serialised results."""
    config = SimConfig()
    config = replace(config, gpu=replace(config.gpu,
                                         dram_scheduler=scheduler))
    observer = Observer(tracer=ChromeTracer(),
                        window_cycles=PINNED_WINDOW_CYCLES)
    runner = Runner(config=config, scale=PINNED_SCALE, observer=observer)
    observed = _serialized(runner.run(workload, scheme))
    metrics, trace = tmp / "metrics.jsonl", tmp / "trace.json"
    observer.write_metrics(metrics)
    observer.write_trace(trace)
    digests = {
        "metrics": _sha256(metrics.read_bytes()),
        "trace": _sha256(trace.read_bytes()),
        "result": _sha256(observed.encode()),
    }
    runner.observer = NULL_OBSERVER
    return digests, observed, _serialized(runner.run(workload, scheme))


@pytest.fixture(scope="module")
def pinned_exports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pinned")
    return {f"{scheduler}/{workload}/{scheme}":
            _pinned_cell(scheduler, workload, scheme, tmp)
            for scheduler, workload, scheme in PINNED_CELLS}


class TestPinnedExports:
    def test_exports_match_the_pinned_digests(self, pinned_exports):
        digests = {cell: run[0] for cell, run in pinned_exports.items()}
        pinned = json.loads(PINNED_DIGESTS.read_text())
        assert digests == pinned, (
            "observer exports changed; new digests:\n"
            + json.dumps(digests, indent=2, sort_keys=True))

    def test_observation_leaves_every_pinned_result_unchanged(
            self, pinned_exports):
        for cell, (_, observed, unobserved) in pinned_exports.items():
            assert observed == unobserved, cell
