"""Registered experiments run serially: structure and static tables."""

import pytest

from repro.common.config import DetectorConfig
from repro.eval import experiments as exp
from repro.eval.campaign import run_cells_serial
from repro.eval.reporting import format_overheads, format_table, summarize_averages


class TestTable9:
    def test_matches_paper_numbers(self):
        hw = exp.table9_hardware_overhead()
        assert hw["readonly_predictor_bytes"] == 128
        assert hw["streaming_predictor_bytes"] == 256
        assert hw["tracker_bits_each"] == 71
        assert hw["trackers"] == 8
        # The paper totals 5,460 B (5.33 KB) across 12 partitions.
        assert hw["total_bytes"] == pytest.approx(5460, abs=10)

    def test_custom_sizing(self):
        hw = exp.table9_hardware_overhead(
            DetectorConfig(num_trackers=16), num_partitions=1
        )
        assert hw["trackers"] == 16
        assert hw["per_partition_bytes"] == (1024 + 2048 + 16 * 71) / 8


class TestExperimentResult:
    def test_average(self):
        r = exp.ExperimentResult("x")
        r.series["a"] = {"w1": 0.5, "w2": 1.5}
        assert r.average("a") == pytest.approx(1.0)
        assert r.averages() == {"a": pytest.approx(1.0)}


SMALL = ["atax", "histo"]


@pytest.fixture(scope="module")
def small_results(suite_runner):
    fig12 = exp.EXPERIMENTS["fig12"]
    jobs = [job for job in fig12.jobs(SMALL, suite_runner.config,
                                      suite_runner.scale)
            if job.scheme in ("pssm", "shm")]
    return {
        "fig5": exp.run_experiment("fig5", suite_runner, SMALL),
        "fig12": fig12.aggregate(run_cells_serial(suite_runner, jobs)),
    }


class TestDrivers:
    def test_fig5_structure(self, small_results):
        fig5 = small_results["fig5"]
        assert set(fig5.series) == {"streaming", "read_only"}
        for series in fig5.series.values():
            assert set(series) == set(SMALL)
            assert all(0.0 <= v <= 1.0 for v in series.values())

    def test_fig12_structure(self, small_results):
        fig12 = small_results["fig12"]
        assert set(fig12.series) == {"pssm", "shm"}
        for series in fig12.series.values():
            assert all(0.0 < v <= 1.001 for v in series.values())

    def test_fig10_fractions(self, suite_runner):
        fig10 = exp.run_experiment("fig10", suite_runner, ["atax"])
        total = sum(fig10.series[c]["atax"]
                    for c in ("correct", "mp_init", "mp_aliasing"))
        assert total == pytest.approx(1.0, abs=0.05)

    def test_fig11_fractions(self, suite_runner):
        fig11 = exp.run_experiment("fig11", suite_runner, ["atax"])
        total = sum(series["atax"] for series in fig11.series.values())
        assert total == pytest.approx(1.0, abs=0.05)


class TestReporting:
    def test_format_table(self, small_results):
        text = format_table(small_results["fig12"], title="Fig. 12")
        assert "Fig. 12" in text
        assert "atax" in text and "histo" in text
        assert "average" in text

    def test_format_overheads_inverts(self, small_results):
        text = format_overheads(small_results["fig12"])
        assert "%" in text

    def test_summarize(self, small_results):
        summary = summarize_averages(small_results["fig12"])
        assert set(summary) == {"pssm", "shm"}
        assert all(s.endswith("%") for s in summary.values())


class TestChunkSizeAblation:
    """A chunk-size cell scores its streaming predictions against a
    ground-truth profile chunked at its own size, on both paths."""

    SCALE = 0.05

    def _spec(self):
        import dataclasses

        spec = exp.EXPERIMENTS["ablation_chunk_size"]
        return dataclasses.replace(spec, jobs=lambda w, c, s: [
            job for job in spec.jobs(["bfs"], c, s)
            if job.series in ("chunk_4kb", "chunk_8kb")])

    def test_cell_scores_against_its_own_chunk_profile(self):
        from dataclasses import replace

        from repro.common.config import SimConfig
        from repro.common.types import Scheme
        from repro.sim.runner import Runner

        [job] = [job for job in self._spec().jobs(None, SimConfig(),
                                                  self.SCALE)
                 if job.series == "chunk_8kb"]
        [record] = run_cells_serial(Runner(scale=self.SCALE), [job])
        detectors = DetectorConfig(stream_chunk_size=8192,
                                   monitor_accesses=64)
        base = SimConfig()
        config = replace(base,
                         scheme=replace(base.scheme, detectors=detectors))
        reference = Runner(config=config, scale=self.SCALE).run(
            "bfs", Scheme.SHM, detectors=detectors)
        assert record.result.streaming_stats == reference.streaming_stats
        assert record.result.cycles == reference.cycles

    def test_pool_and_serial_agree(self):
        from repro.common.config import SimConfig
        from repro.eval.campaign import run_campaign
        from repro.eval.results_io import serialize_run_result
        from repro.sim.runner import Runner

        spec = self._spec()

        def cells(records):
            assert all(rec.ok for rec in records)
            return {rec.job.series: (serialize_run_result(rec.result),
                                     serialize_run_result(rec.baseline))
                    for rec in records}

        serial = cells(run_cells_serial(
            Runner(scale=self.SCALE),
            spec.jobs(None, SimConfig(), self.SCALE), strict=False))
        assert set(serial) == {"chunk_4kb", "chunk_8kb"}
        report = run_campaign(["ablation_chunk_size"], scale=self.SCALE,
                              jobs=1, specs={"ablation_chunk_size": spec})
        assert cells(report.records["ablation_chunk_size"]) == serial


class TestBandwidthSensitivityAblation:
    def test_every_named_base_is_swept(self):
        """Each named workload gets its own variant at every
        utilisation and scheme; a second name is not dropped."""
        from repro.common.config import SimConfig

        spec = exp.EXPERIMENTS["ablation_bandwidth_sensitivity"]
        jobs = spec.jobs(["atax", "mvt"], SimConfig(), 0.05)
        cells = {(job.workload_base, job.workload,
                  job.workload_overrides["bandwidth_utilization"],
                  job.scheme) for job in jobs}
        expected = {(base, f"{base}@{int(100 * util)}", util, scheme.value)
                    for base in ("atax", "mvt")
                    for util in exp.DEFAULT_UTILIZATIONS
                    for scheme in exp.DEFAULT_BANDWIDTH_SCHEMES}
        assert len(jobs) == len(expected) == 16
        assert cells == expected
