"""Composed (workload_spec) cells through the campaign engine: the
multi-tenant experiments, cell identity, serial-vs-pool identity."""

from repro.common.config import SimConfig
from repro.eval.campaign import (
    JobSpec,
    _cell_worker,
    cell_key,
    run_campaign,
    run_cells_serial,
)
from repro.eval.experiments import (
    EXPERIMENTS,
    _multitenant_jobs,
    _phase_churn_jobs,
)
from repro.eval.results_io import serialize_run_result
from repro.workloads.multitenant import contention_spec, phase_churn_spec

SCALE = 0.05


def tiny_job(**overrides):
    spec = contention_spec(2, footprint="192KB")
    spec["multi_tenant"].update(
        epochs=2, slots_per_epoch=1024, burst_accesses=32)
    fields = dict(experiment="t", workload=spec["name"], scheme="pssm",
                  series="pssm", scale=1.0, config=SimConfig(),
                  workload_spec=spec)
    fields.update(overrides)
    return JobSpec(**fields)


class TestRegistration:
    def test_both_experiments_registered(self):
        assert "ablation_multitenant_contention" in EXPERIMENTS
        assert "suite_phase_churn" in EXPERIMENTS

    def test_contention_matrix_shape(self):
        jobs = _multitenant_jobs(None, SimConfig(), SCALE)
        assert {j.workload for j in jobs} == {"mt1", "mt2", "mt4", "mt8"}
        assert {j.scheme for j in jobs} == {"pssm", "shm"}
        assert all(j.workload_spec is not None for j in jobs)

    def test_churn_matrix_shape(self):
        jobs = _phase_churn_jobs(None, SimConfig(), SCALE)
        assert {j.workload for j in jobs} == \
            {"mt4_churn0", "mt4_churn25", "mt4_churn50", "mt4_churn100"}

    def test_unique_cell_keys_across_both(self):
        jobs = _multitenant_jobs(None, SimConfig(), SCALE) + \
            _phase_churn_jobs(None, SimConfig(), SCALE)
        keys = [cell_key(j) for j in jobs]
        assert len(set(keys)) == len(keys)


class TestCellIdentity:
    def test_spec_is_part_of_the_key(self):
        a = tiny_job()
        changed = contention_spec(2, footprint="192KB", seed=9)
        changed["multi_tenant"].update(
            epochs=2, slots_per_epoch=1024, burst_accesses=32)
        b = tiny_job(workload_spec=changed)
        assert cell_key(a, "v1") != cell_key(b, "v1")

    def test_key_stable_for_equal_specs(self):
        assert cell_key(tiny_job(), "v1") == cell_key(tiny_job(), "v1")


class TestExecution:
    def test_serial_cell_runs_composed_workload(self, suite_runner=None):
        from repro.sim.runner import Runner

        job = tiny_job()
        [record] = run_cells_serial(Runner(config=job.config,
                                           scale=job.scale), [job])
        assert record.ok
        assert 0.0 < record.result.normalized_ipc(record.baseline) <= 1.5

    def test_worker_entry_matches_serial(self):
        """_cell_worker (the pool's entry point) must reproduce the
        serial path bit-for-bit from nothing but the JobSpec."""
        from repro.sim.runner import Runner

        job = tiny_job()
        [serial] = run_cells_serial(Runner(config=job.config,
                                           scale=job.scale), [job])
        from repro.eval.campaign import _deserialize_payload
        pooled = _deserialize_payload(_cell_worker(job))
        assert pooled["result"].cycles == serial.result.cycles
        assert pooled["result"].traffic.total_bytes == \
            serial.result.traffic.total_bytes

    @staticmethod
    def assert_serial_matches_worker(jobs):
        from repro.sim.runner import Runner

        records = run_cells_serial(Runner(scale=SCALE), jobs)
        for job, record in zip(jobs, records):
            pooled = _cell_worker(job)
            assert serialize_run_result(record.result) == pooled["result"]
            assert serialize_run_result(record.baseline) == \
                pooled["baseline"]
        assert records[0].result.cycles != records[1].result.cycles

    def test_same_name_different_spec_runs_its_own_workload(self):
        """Two seeds of one churn suite share the name ``mt4_churn50``:
        on one serial runner each cell must still run its own trace
        and calibration, exactly as a pool worker does."""
        self.assert_serial_matches_worker([
            JobSpec(experiment="t", workload="mt4_churn50", scheme="shm",
                    series="shm", scale=SCALE, config=SimConfig(),
                    workload_spec=phase_churn_spec(0.5, seed=seed))
            for seed in (2241, 2242)])

    def test_same_name_different_variant_runs_its_own_workload(self):
        self.assert_serial_matches_worker([
            JobSpec(experiment="t", workload="atax@x", scheme="shm",
                    series="shm", scale=SCALE, config=SimConfig(),
                    workload_base="atax",
                    workload_overrides={"bandwidth_utilization": util})
            for util in (0.3, 0.8)])

    def test_campaign_pool_equals_serial(self, tmp_path):
        spec = EXPERIMENTS["ablation_multitenant_contention"]
        jobs_fn = lambda w, c, s: [job for job in _multitenant_jobs(w, c, s)
                                   if job.workload == "mt2"]
        import dataclasses
        small = dataclasses.replace(spec, jobs=jobs_fn)
        specs = {spec.name: small}
        serial = run_campaign([spec.name], scale=SCALE, serial=True,
                              specs=specs)
        pooled = run_campaign([spec.name], scale=SCALE, jobs=2,
                              specs=specs)
        assert serial.results[spec.name].series == \
            pooled.results[spec.name].series
        assert not serial.failed_cells and not pooled.failed_cells

    def test_store_resume_serves_composed_cells(self, tmp_path):
        spec = EXPERIMENTS["suite_phase_churn"]
        jobs_fn = lambda w, c, s: [job for job in _phase_churn_jobs(w, c, s)
                                   if job.workload == "mt4_churn50"]
        import dataclasses
        specs = {spec.name: dataclasses.replace(spec, jobs=jobs_fn)}
        kwargs = dict(scale=SCALE, serial=True, specs=specs,
                      store_dir=tmp_path / "store")
        first = run_campaign([spec.name], **kwargs)
        second = run_campaign([spec.name], **kwargs)
        assert first.totals["executed"] == 2   # pssm + shm
        assert second.totals["cached"] == 2
        assert first.results[spec.name].series == \
            second.results[spec.name].series
