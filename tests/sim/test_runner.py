"""Runner: calibration, caching, normalisation."""

import pytest

from repro.common.types import Scheme
from repro.eval.results_io import serialize_run_result
from repro.sim.gpu import GPUSimulator
from repro.sim.profiling import TraceProfile
from repro.sim.runner import GAP_EPSILON, Runner


class TestCalibration:
    def test_utilization_near_target(self, tiny_runner, tiny_streaming):
        calib = tiny_runner.calibration(tiny_streaming.name)
        target = tiny_streaming.bandwidth_utilization
        measured = calib.baseline.dram_utilization
        assert measured == pytest.approx(target, rel=0.25)

    def test_window_positive(self, tiny_runner, tiny_streaming):
        assert tiny_runner.calibration(tiny_streaming.name).window >= 16

    def test_profile_attached(self, tiny_runner, tiny_streaming):
        profile = tiny_runner.profile(tiny_streaming.name)
        assert profile.total_accesses > 0
        # The tiny streaming workload is overwhelmingly streaming.
        assert profile.streaming_ratio > 0.7


class TestCalibrationRuns:
    """A search that settles on the window its last round simulated
    reuses that round as the recorded baseline; one that runs out of
    rounds records once more, at the window it ended on."""

    @staticmethod
    def calibrate(monkeypatch, name):
        """Calibrate ``name`` at scale 0.1; returns the runner, the
        calibration and the window of every simulation it ran."""
        windows = []
        real = GPUSimulator.run

        def spy(sim, workload, **kwargs):
            windows.append(kwargs["max_inflight"])
            return real(sim, workload, **kwargs)

        monkeypatch.setattr(GPUSimulator, "run", spy)
        runner = Runner(scale=0.1)
        calib = runner.calibration(name)
        monkeypatch.undo()
        return runner, calib, windows

    @staticmethod
    def assert_matches_fresh_recording(runner, name, calib):
        recorder = GPUSimulator(
            runner.config.with_scheme(Scheme.UNPROTECTED), record_stream=True)
        baseline = recorder.run(runner.workload(name), gap=GAP_EPSILON,
                                max_inflight=calib.window)
        assert serialize_run_result(calib.baseline) == \
            serialize_run_result(baseline)
        detectors = runner.config.scheme.detectors
        profile = TraceProfile(
            region_size=detectors.readonly_region_size,
            chunk_size=detectors.stream_chunk_size,
        ).ingest(recorder.streams)
        assert calib.profile.streaming_ratio == profile.streaming_ratio
        assert calib.profile.readonly_ratio == profile.readonly_ratio
        assert calib.profile._phases == profile._phases
        assert calib.profile._written == profile._written

    def test_converged_search_reuses_its_last_round(self, monkeypatch):
        runner, calib, windows = self.calibrate(monkeypatch, "atax")
        assert windows == [512, 134, 52]
        assert calib.window == windows[-1]
        self.assert_matches_fresh_recording(runner, "atax", calib)

    def test_exhausted_search_records_at_its_final_window(self,
                                                          monkeypatch):
        runner, calib, windows = self.calibrate(monkeypatch, "kmeans")
        # Four search rounds, then one recording at the window they
        # ended on.
        assert windows == [512, 435, 369, 313, 266]
        assert calib.window == windows[-1]
        self.assert_matches_fresh_recording(runner, "kmeans", calib)


class TestCaching:
    def test_run_cached(self, tiny_runner, tiny_streaming):
        a = tiny_runner.run(tiny_streaming.name, Scheme.PSSM)
        b = tiny_runner.run(tiny_streaming.name, Scheme.PSSM)
        # Cached, but served as defensive copies: equal values,
        # distinct objects.
        assert a is not b
        assert a.cycles == b.cycles
        assert a.traffic.total_bytes == b.traffic.total_bytes
        assert a.latency.average == b.latency.average

    def test_overrides_bypass_cache(self, tiny_runner, tiny_streaming):
        a = tiny_runner.run(tiny_streaming.name, Scheme.SHM)
        b = tiny_runner.run(tiny_streaming.name, Scheme.SHM,
                            mac_conflict_policy="update_both")
        assert a is not b

    def test_unprotected_matches_baseline(self, tiny_runner, tiny_streaming):
        run = tiny_runner.run(tiny_streaming.name, Scheme.UNPROTECTED)
        base = tiny_runner.baseline(tiny_streaming.name)
        assert run is not base
        assert run.cycles == base.cycles
        assert run.traffic.total_bytes == base.traffic.total_bytes

    def test_mutation_does_not_corrupt_cache(self, tiny_runner,
                                             tiny_streaming):
        a = tiny_runner.run(tiny_streaming.name, Scheme.PSSM)
        original_cycles = a.cycles
        original_data = a.traffic.data_bytes
        a.cycles = -1.0
        a.traffic.data_bytes = 0
        b = tiny_runner.run(tiny_streaming.name, Scheme.PSSM)
        assert b.cycles == original_cycles
        assert b.traffic.data_bytes == original_data

    def test_baseline_mutation_does_not_corrupt_cache(self, tiny_runner,
                                                      tiny_streaming):
        base = tiny_runner.baseline(tiny_streaming.name)
        original = base.traffic.data_bytes
        base.traffic.data_bytes = 0
        again = tiny_runner.baseline(tiny_streaming.name)
        assert again.traffic.data_bytes == original


class TestMetrics:
    def test_normalized_ipc_at_most_one(self, tiny_runner, tiny_streaming):
        for scheme in (Scheme.NAIVE, Scheme.PSSM, Scheme.SHM):
            nipc = tiny_runner.normalized_ipc(tiny_streaming.name, scheme)
            assert 0.0 < nipc <= 1.001

    def test_overhead_complements_ipc(self, tiny_runner, tiny_streaming):
        nipc = tiny_runner.normalized_ipc(tiny_streaming.name, Scheme.PSSM)
        over = tiny_runner.overhead(tiny_streaming.name, Scheme.PSSM)
        assert nipc + over == pytest.approx(1.0)


class TestSuiteIntegration:
    def test_suite_workload_builds_on_demand(self, suite_runner):
        w = suite_runner.workload("atax")
        assert w.name == "atax"
        assert w.total_accesses > 0

    def test_unknown_workload_raises(self, suite_runner):
        with pytest.raises(KeyError):
            suite_runner.workload("nonexistent")
