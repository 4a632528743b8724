"""The campaign engine: dedup, store resume, degradation, manifests."""

import dataclasses
import json
import os
import pickle
import threading
import time
import zlib

import pytest

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.eval.campaign import (
    SMOKE_SPEC,
    ExperimentResult,
    ExperimentSpec,
    JobSpec,
    _calibration_waves,
    campaign_id,
    cell_key,
    run_campaign,
    run_cells_serial,
    run_smoke,
)
from repro.eval.reporting import format_campaign_manifest
from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner
from repro.workloads.multitenant import phase_churn_spec

SCALE = 0.05


def _spec(jobs_fn, name="test-exp"):
    return ExperimentSpec(
        name=name,
        title="test experiment",
        provenance="tests only",
        jobs=jobs_fn,
        aggregate=_aggregate,
    )


def _aggregate(records):
    result = ExperimentResult("test-exp")
    for rec in records:
        label = rec.job.series or rec.job.scheme
        if rec.profile is not None:
            value = rec.profile["streaming_ratio"]
        else:
            value = rec.result.normalized_ipc(rec.baseline)
        result.series.setdefault(label, {})[rec.job.workload] = value
    return result


def _smoke_like(workloads, schemes=(Scheme.SHM,), kind="run"):
    def jobs(_workloads, config, scale):
        return [
            JobSpec(experiment="test-exp", workload=name, kind=kind,
                    scheme=scheme.value, series=scheme.value,
                    scale=scale, config=config)
            for scheme in schemes
            for name in workloads
        ]
    return jobs


class TestCellKey:
    def _job(self, **kwargs):
        defaults = dict(experiment="fig12", workload="atax",
                        scheme="shm", scale=0.1, config=SimConfig())
        defaults.update(kwargs)
        return JobSpec(**defaults)

    def test_presentation_fields_do_not_change_the_key(self):
        a = self._job(experiment="fig12", series="shm")
        b = self._job(experiment="fig16", series="victim-off")
        assert cell_key(a, "v1") == cell_key(b, "v1")

    def test_identity_fields_change_the_key(self):
        base = self._job()
        assert cell_key(base, "v1") != cell_key(
            self._job(workload="mvt"), "v1")
        assert cell_key(base, "v1") != cell_key(
            self._job(scheme="pssm"), "v1")
        assert cell_key(base, "v1") != cell_key(
            self._job(scale=0.2), "v1")
        assert cell_key(base, "v1") != cell_key(
            self._job(overrides={"mac_conflict_policy": "update_both"}),
            "v1")
        mdc = SimConfig()
        varied = dataclasses.replace(
            mdc,
            mdc=dataclasses.replace(
                mdc.mdc,
                counter=dataclasses.replace(
                    mdc.mdc.counter,
                    size_bytes=mdc.mdc.counter.size_bytes * 2),
            ),
        )
        assert cell_key(base, "v1") != cell_key(
            self._job(config=varied), "v1")

    def test_code_version_changes_the_key(self):
        job = self._job()
        assert cell_key(job, "v1") != cell_key(job, "v2")


def _record_bytes(records):
    """(workload, series) -> the serialized result and baseline of
    every record that finished."""
    return {(rec.job.workload, rec.job.series):
            (serialize_run_result(rec.result),
             serialize_run_result(rec.baseline))
            for rec in records if rec.ok}


def _cell_bytes(report, experiment="test-exp"):
    return _record_bytes(report.records[experiment])


def _serial_records(jobs_fn, scale=SCALE):
    """The matrix ``jobs_fn`` builds at the default config, run on the
    serial path (one runner at that config and ``scale``)."""
    config = SimConfig()
    return run_cells_serial(Runner(config=config, scale=scale),
                            jobs_fn(None, config, scale), strict=False)


def _count_calibrations(monkeypatch):
    """Count ``Runner._calibrate`` calls made in this process."""
    calls = []
    calibrate = Runner._calibrate

    def counting(self, workload):
        calls.append(workload.name)
        return calibrate(self, workload)

    monkeypatch.setattr(Runner, "_calibrate", counting)
    return calls


def _churn_jobs(_workloads, config, scale):
    """Two seeds of one churn suite: same name, different specs."""
    return [JobSpec(experiment="test-exp", workload="mt4_churn50",
                    scheme=scheme, series=f"{scheme}/{seed}", scale=scale,
                    config=config,
                    workload_spec=phase_churn_spec(0.5, seed=seed))
            for scheme in ("pssm", "shm") for seed in (2241, 2242)]


class TestSerialEngineEquivalence:
    """The pool's followers run on a shipped calibration; every cell
    must still equal the serial path's byte for byte."""

    @staticmethod
    def assert_pool_matches_serial(jobs_fn):
        serial = _record_bytes(_serial_records(jobs_fn))
        pooled = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              specs={"test-exp": _spec(jobs_fn)})
        assert pooled.totals["failed"] == 0
        assert _cell_bytes(pooled) == serial
        # Two calibration groups, each with its own baseline: a
        # calibration shipped to the wrong group would show.
        assert len({json.dumps(baseline, sort_keys=True)
                    for _, baseline in serial.values()}) == 2

    def test_serial_and_pool_agree(self):
        self.assert_pool_matches_serial(_smoke_like(
            ["atax", "mvt"], (Scheme.PSSM, Scheme.SHM, Scheme.NAIVE)))

    def test_churn_seeds_agree_as_separate_groups(self):
        """Two seeds of ``mt4_churn50`` share a name but not a spec."""
        self.assert_pool_matches_serial(_churn_jobs)

    def test_cells_off_the_campaign_scale_run_at_their_own(self,
                                                           monkeypatch):
        """The serial path on a runner at 0.02 with atax cells at 0.02
        and 0.04: the 0.04 cells run at 0.04 (as campaign cells do),
        and the two 0.04 configs share one calibration on both."""
        def jobs(_workloads, config, scale):
            counter = dataclasses.replace(
                config.mdc.counter,
                size_bytes=config.mdc.counter.size_bytes * 2)
            mdc = dataclasses.replace(
                config, mdc=dataclasses.replace(config.mdc, counter=counter))
            return [JobSpec(experiment="test-exp", workload="atax",
                            scheme=scheme, series=series, scale=at,
                            config=cell_config)
                    for series, scheme, at, cell_config in (
                        ("shm@0.02", "shm", scale, config),
                        ("shm@0.04", "shm", 2 * scale, config),
                        ("mdc-shm@0.04", "shm", 2 * scale, mdc),
                        ("mdc-pssm@0.04", "pssm", 2 * scale, mdc))]

        calls = _count_calibrations(monkeypatch)
        pooled = _cell_bytes(run_campaign(["test-exp"], scale=0.02, jobs=1,
                                          specs={"test-exp": _spec(jobs)}))
        assert calls == ["atax", "atax"]
        calls.clear()
        serial = _record_bytes(_serial_records(jobs, scale=0.02))
        assert serial == pooled
        assert calls == ["atax", "atax"]
        assert (pooled[("atax", "shm@0.02")]
                != pooled[("atax", "shm@0.04")])


def _in_process_records(jobs_fn):
    """The matrix ``jobs_fn`` builds, run as a ``jobs=1`` campaign."""
    report = run_campaign(["test-exp"], scale=SCALE, jobs=1,
                          specs={"test-exp": _spec(jobs_fn)})
    assert report.totals["executed"] == report.totals["cells"]
    return report.records["test-exp"]


MODES = pytest.mark.parametrize("run", [_in_process_records,
                                        _serial_records],
                                ids=["in-process-pool", "serial"])


class TestCalibrationSharing:
    @MODES
    def test_smoke_calibrates_once_per_workload(self, monkeypatch, run):
        calls = _count_calibrations(monkeypatch)
        records = run(SMOKE_SPEC.jobs)
        assert len(records) == 4 and all(rec.ok for rec in records)
        assert sorted(calls) == ["atax", "mvt"]

    @MODES
    def test_smoke_builds_each_workload_once(self, monkeypatch, run):
        """An in-process campaign's cells share their workloads, as the
        serial path's do."""
        from repro.sim import runner as runner_module

        built = []
        build = runner_module.build_workload

        def counting(name, scale):
            built.append(name)
            return build(name, scale)

        monkeypatch.setattr(runner_module, "build_workload", counting)
        records = run(SMOKE_SPEC.jobs)
        assert len(records) == 4 and all(rec.ok for rec in records)
        assert sorted(built) == ["atax", "mvt"]

    @MODES
    def test_a_scheduler_cell_calibrates_and_an_mdc_cell_shares(
            self, monkeypatch, run):
        """A ``banked`` cell calibrates for itself; ``critical_first``
        and MDC-size cells share the FIFO calibration."""
        def jobs(workloads, config, scale):
            counter = dataclasses.replace(
                config.mdc.counter,
                size_bytes=config.mdc.counter.size_bytes * 2)
            mdc = dataclasses.replace(config.mdc, counter=counter)
            return SMOKE_SPEC.jobs(workloads, config, scale) + [
                JobSpec(experiment="smoke", workload="atax", scheme="shm",
                        series=series, scale=scale,
                        config=dataclasses.replace(config, **change))
                for series, change in (
                    ("banked", {"gpu": dataclasses.replace(
                        config.gpu, dram_scheduler="banked")}),
                    ("critical_first", {"gpu": dataclasses.replace(
                        config.gpu, dram_scheduler="critical_first")}),
                    ("mdc", {"mdc": mdc}))]

        calls = _count_calibrations(monkeypatch)
        records = run(jobs)
        assert len(records) == 7 and all(rec.ok for rec in records)
        assert sorted(calls) == ["atax", "atax", "mvt"]

    def test_failed_leader_leaves_followers_to_calibrate(self,
                                                         monkeypatch):
        """The first (PSSM) cell of atax's group fails: its first
        follower calibrates for the group, and the followers still
        equal the serial path."""
        from repro.eval import campaign

        real = campaign._cell_worker

        def leader_fails(job, **kwargs):
            if job.workload == "atax" and job.scheme == "pssm":
                raise RuntimeError("leader failed")
            return real(job, **kwargs)

        jobs = _smoke_like(["atax", "mvt"],
                           (Scheme.PSSM, Scheme.SHM, Scheme.NAIVE))
        serial = _record_bytes(_serial_records(jobs))
        monkeypatch.setattr(campaign, "_cell_worker", leader_fails)
        calls = _count_calibrations(monkeypatch)
        report = run_campaign(["test-exp"], scale=SCALE, jobs=1,
                              retries=0, specs={"test-exp": _spec(jobs)})
        (failed,) = report.failed_cells
        assert (failed.job.workload, failed.job.scheme) == ("atax", "pssm")
        # Each group calibrates once on the campaign's evaluator.
        assert sorted(calls) == ["atax", "mvt"]
        pooled = _cell_bytes(report)
        assert len(pooled) == 5
        assert pooled == {cell: serial[cell] for cell in pooled}


def _refuse(*_args, **_kwargs):
    raise AssertionError("a follower with its group's set-up built or "
                         "calibrated")


def _count_into(path, label, function):
    """``function``, appending ``label`` to ``path`` on each call: pool
    workers forked after the patch count into the same file."""
    def counting(*args, **kwargs):
        with open(path, "a") as out:
            out.write(f"{label}\n")
        return function(*args, **kwargs)
    return counting


class TestGroupSetup:
    """A pool leader ships its group's built workload and calibration;
    a follower that carries them builds and calibrates nothing."""

    @pytest.mark.parametrize("cell", [
        {"workload": "atax"},
        {"workload": "atax@50", "workload_base": "atax",
         "workload_overrides": {"bandwidth_utilization": 0.5}},
        {"workload": "mt4_churn50",
         "workload_spec": phase_churn_spec(0.5, seed=2241)},
    ], ids=["suite", "variant", "composed"])
    def test_a_follower_builds_nothing(self, monkeypatch, cell):
        from repro.eval import campaign
        from repro.workloads.trace_io import workload_from_dict

        leader, *followers = [
            JobSpec(experiment="test-exp", scheme=scheme, series=scheme,
                    scale=SCALE, **cell)
            for scheme in ("pssm", "shm", "naive")]
        serial = {rec.job.scheme: {
                      "result": serialize_run_result(rec.result),
                      "baseline": serialize_run_result(rec.baseline)}
                  for rec in run_cells_serial(Runner(scale=SCALE),
                                              [leader, *followers])}
        snapshots = []
        to_dict = campaign.workload_to_dict

        def capturing(workload):
            snapshots.append(workload)
            return to_dict(workload)

        monkeypatch.setattr(campaign, "workload_to_dict", capturing)
        payload = campaign._cell_worker(leader)
        setup = payload.pop("group_setup")
        assert payload == serial["pssm"]
        (built,) = snapshots
        assert built.name == cell["workload"]
        snapshot, _calibration = pickle.loads(zlib.decompress(setup))
        assert workload_from_dict(snapshot) == built

        monkeypatch.setattr("repro.sim.runner.build_workload", _refuse)
        monkeypatch.setattr("repro.workloads.compose.build_workload",
                            _refuse)
        monkeypatch.setattr(Runner, "_calibrate", _refuse)
        for job in followers:
            payload = campaign._cell_worker(
                dataclasses.replace(job, group_setup=setup))
            assert payload == serial[job.scheme]

    def test_a_pool_builds_and_calibrates_once_per_group(self, tmp_path,
                                                         monkeypatch):
        """Two churn seeds, two schemes each, on two workers: two
        leaders build and calibrate, their followers do neither."""
        from repro.sim import runner as runner_module
        from repro.workloads import compose

        log = tmp_path / "calls"
        monkeypatch.setattr(runner_module, "build_workload", _count_into(
            log, "build", runner_module.build_workload))
        monkeypatch.setattr(compose, "build_workload", _count_into(
            log, "build", compose.build_workload))
        monkeypatch.setattr(Runner, "_calibrate", _count_into(
            log, "calibrate", Runner._calibrate))
        report = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              specs={"test-exp": _spec(_churn_jobs)})
        assert report.totals["failed"] == 0
        assert sorted(log.read_text().split()) == [
            "build", "build", "calibrate", "calibrate"]


class TestCalibrationWaves:
    """``_calibration_waves`` as a pure function of the cell list."""

    @staticmethod
    def _job(workload="atax", scheme="shm", **kwargs):
        return JobSpec(experiment="e", workload=workload, scheme=scheme,
                       scale=kwargs.pop("scale", SCALE),
                       config=kwargs.pop("config", SimConfig()), **kwargs)

    def test_leaders_come_in_order(self):
        jobs = [self._job("mvt"), self._job("atax"),
                self._job("mvt", "pssm"), self._job("bfs"),
                self._job("atax", "pssm")]
        assert _calibration_waves(jobs, 1) == ([0, 1, 3], [2, 4])

    @pytest.mark.parametrize("change", [
        lambda c: {"config": dataclasses.replace(
            c, gpu=dataclasses.replace(c.gpu, dram_scheduler="banked"))},
        lambda c: {"config": dataclasses.replace(
            c, scheme=dataclasses.replace(
                c.scheme, detectors=dataclasses.replace(
                    c.scheme.detectors,
                    readonly_region_size=c.scheme.detectors
                    .readonly_region_size * 2)))},
        lambda c: {"scale": SCALE * 2},
        lambda c: {"workload_base": "atax",
                   "workload_overrides": {"bandwidth_utilization": 0.5}},
    ], ids=["gpu", "detectors", "scale", "workload-identity"])
    def test_calibration_inputs_start_a_new_group(self, change):
        jobs = [self._job(), self._job("atax", "pssm",
                                       **change(SimConfig()))]
        assert _calibration_waves(jobs, 1) == ([0, 1], [])

    @pytest.mark.parametrize("change", [
        lambda c: {"config": dataclasses.replace(
            c, mdc=dataclasses.replace(
                c.mdc, counter=dataclasses.replace(
                    c.mdc.counter,
                    size_bytes=c.mdc.counter.size_bytes * 2)))},
        lambda c: {"overrides": {"mac_conflict_policy": "update_both"}},
        lambda c: {"config": dataclasses.replace(
            c, gpu=dataclasses.replace(c.gpu,
                                       dram_scheduler="critical_first"))},
        lambda c: {"config": dataclasses.replace(
            c, gpu=dataclasses.replace(c.gpu,
                                       dram_scheduler="critical_first",
                                       dram_write_buffer=4))},
        lambda c: {"config": dataclasses.replace(
            c, scheme=dataclasses.replace(
                c.scheme, detectors=dataclasses.replace(
                    c.scheme.detectors,
                    num_trackers=c.scheme.detectors.num_trackers * 2)))},
    ], ids=["mdc", "scheme-override", "critical_first",
            "critical_first-write-buffer", "num_trackers"])
    def test_other_config_shares_the_group(self, change):
        jobs = [self._job(), self._job(**change(SimConfig()))]
        assert _calibration_waves(jobs, 1) == ([0], [1])

    def test_wave_one_is_topped_up_to_the_worker_count(self):
        jobs = [self._job(scheme=s) for s in ("pssm", "shm", "naive")]
        jobs.append(self._job("mvt"))
        assert _calibration_waves(jobs, 2) == ([0, 3], [1, 2])
        assert _calibration_waves(jobs, 3) == ([0, 1, 3], [2])
        assert _calibration_waves(jobs, 8) == ([0, 1, 2, 3], [])


class TestWorkerCount:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_campaign_rejects_fewer_than_one_worker(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(["smoke"], scale=SCALE, jobs=jobs,
                         specs={"smoke": SMOKE_SPEC})


def _os_threads():
    """The process's operating-system thread count, where the platform
    lists it (``/proc/self/task``); None elsewhere."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class TestPoolWaves:
    def test_each_wave_forks_from_a_single_threaded_parent(self):
        """Wave 1's pool is joined before wave 2's pool forks: a fork
        taken while the old pool's manager and queue-feeder threads
        still run may inherit a lock one of them holds.  The threads
        must be gone from the operating system too, not only from
        ``threading`` (Python 3.12 warns about a multi-threaded fork
        by the operating system's count)."""
        seen = []
        armed = [True]

        def before_fork():
            if armed:
                seen.append((threading.active_count(), _os_threads()))

        os_threads = _os_threads()
        # A fork hook cannot be removed; once disarmed it records nothing.
        os.register_at_fork(before=before_fork)
        try:
            report = run_campaign(["smoke"], scale=SCALE, jobs=2,
                                  specs={"smoke": SMOKE_SPEC})
        finally:
            armed.clear()
        assert report.totals["failed"] == 0
        assert len(seen) == 4  # two waves of two workers
        assert seen == [(1, os_threads)] * 4


class TestStoreResume:
    def test_second_run_is_fully_cached(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        kwargs = dict(scale=SCALE, jobs=1, specs=specs,
                      store_dir=tmp_path / "store")
        first = run_campaign(["test-exp"], **kwargs)
        second = run_campaign(["test-exp"], **kwargs)
        assert first.totals["executed"] == first.totals["cells"]
        assert second.totals["cached"] == second.totals["cells"]
        assert second.totals["executed"] == 0
        # Cached cells aggregate to the same numbers.
        assert (second.results["test-exp"].averages()
                == pytest.approx(first.results["test-exp"].averages()))

    def test_force_reexecutes_cached_cells(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        kwargs = dict(scale=SCALE, jobs=1, specs=specs,
                      store_dir=tmp_path / "store")
        run_campaign(["test-exp"], **kwargs)
        forced = run_campaign(["test-exp"], force=True, **kwargs)
        assert forced.totals["cached"] == 0
        assert forced.totals["executed"] == forced.totals["cells"]

    def test_cells_shared_across_experiments(self, tmp_path):
        specs = {
            "exp-a": _spec(_smoke_like(["atax"]), "exp-a"),
            "exp-b": _spec(_smoke_like(["atax"]), "exp-b"),
        }
        report = run_campaign(["exp-a", "exp-b"], scale=SCALE, jobs=1,
                              specs=specs)
        assert report.totals["cells"] == 1       # deduplicated ...
        assert report.totals["references"] == 2  # ... but counted twice
        assert (report.results["exp-a"].averages()
                == report.results["exp-b"].averages())

    def test_run_smoke_resumes(self, tmp_path):
        first, second = run_smoke(tmp_path / "store", jobs=1, scale=SCALE)
        assert first.totals["failed"] == 0
        assert second.totals["cached"] == second.totals["cells"]


class TestGracefulDegradation:
    def test_failed_cell_recorded_and_excluded(self, tmp_path):
        specs = {"test-exp": _spec(
            _smoke_like(["atax", "no-such-workload"]))}
        report = run_campaign(["test-exp"], scale=SCALE, jobs=1,
                              specs=specs)
        assert report.totals["failed"] == 1
        (failed,) = report.failed_cells
        assert failed.job.workload == "no-such-workload"
        assert failed.error  # the traceback travelled with the record
        # The aggregate only sees the healthy cell.
        assert set(report.results["test-exp"].series["shm"]) == {"atax"}
        # The manifest reports the failure, including the error text.
        exp = report.manifest["experiments"]["test-exp"]
        assert exp["failed"] == 1
        bad = [c for c in exp["cells"] if c["status"] != "ok"]
        assert bad and bad[0]["workload"] == "no-such-workload"
        assert "error" in bad[0]

    def test_failed_cells_are_not_cached(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["no-such-workload"]))}
        kwargs = dict(scale=SCALE, jobs=1, specs=specs,
                      store_dir=tmp_path / "store")
        run_campaign(["test-exp"], **kwargs)
        again = run_campaign(["test-exp"], **kwargs)
        assert again.totals["cached"] == 0  # failures are re-attempted

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="no-such-exp"):
            run_campaign(["no-such-exp"], specs={"smoke": SMOKE_SPEC})


class TestProfileCells:
    def test_profile_kind_round_trips(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"], kind="profile"))}
        kwargs = dict(scale=SCALE, specs=specs,
                      store_dir=tmp_path / "store")
        first = run_campaign(["test-exp"], jobs=1, **kwargs)
        cached = run_campaign(["test-exp"], jobs=1, **kwargs)
        assert cached.totals["cached"] == 1
        (rec,) = cached.records["test-exp"]
        assert 0.0 <= rec.profile["streaming_ratio"] <= 1.0
        assert (cached.results["test-exp"].averages()
                == first.results["test-exp"].averages())


class TestManifest:
    def test_shape(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        report = run_campaign(["test-exp"], scale=SCALE, jobs=1,
                              specs=specs, store_dir=tmp_path / "store")
        manifest = report.manifest
        assert manifest["campaign_format"] == 1
        assert manifest["code_version"]
        assert manifest["scale"] == SCALE
        assert manifest["store"]
        exp = manifest["experiments"]["test-exp"]
        assert exp["provenance"] == "tests only"
        assert exp["averages"]["shm"] == pytest.approx(
            report.results["test-exp"].average("shm"))
        (cell,) = exp["cells"]
        assert cell["key"] and cell["status"] == "ok"
        totals = manifest["totals"]
        assert totals["cells"] == totals["ok"] == 1
        # It is a JSON document (``repro inspect`` reads it back).
        json.dumps(manifest)
        # Per-cell runtimes reached the PR-1 metrics registry.
        assert "campaign.cell_runtime_s" in manifest["metrics"]["histograms"]

    def test_series_are_the_aggregated_values(self):
        specs = {"test-exp": _spec(_smoke_like(["atax", "mvt"],
                                               kind="profile"))}
        report = run_campaign(["test-exp"], scale=SCALE, jobs=1,
                              specs=specs)
        exp = report.manifest["experiments"]["test-exp"]
        assert exp["series"] == report.results["test-exp"].series
        assert set(exp["series"]["shm"]) == {"atax", "mvt"}
        # A clean run records no retries.
        assert all("retries" not in cell for cell in exp["cells"])

    def test_carries_the_campaign_id(self):
        report = run_campaign(["test-exp"], scale=SCALE, jobs=1,
                              specs={"test-exp": _spec(_smoke_like(
                                  ["atax"], kind="profile"))})
        assert report.manifest["campaign"] == campaign_id(
            ["test-exp"], None, SCALE, report.manifest["code_version"])


#: Worker-side crash/sleep marker (a file path).  Module-level fakes
#: read it from the environment: pool children inherit it via fork.
_MARKER_VAR = "REPRO_TEST_FAULT_MARKER"


def _first_attempt(marker):
    """True exactly once per marker file (created as the side effect)."""
    if os.path.exists(marker):
        return False
    with open(marker, "w"):
        pass
    return True


def _crash_then_ok(job):
    """Pool worker fake: hard-dies (as OOM/kill would) on the first
    attempt, then answers like a profile cell."""
    if _first_attempt(os.environ[_MARKER_VAR]):
        os._exit(13)
    return {"profile": {"streaming_ratio": 0.5, "readonly_ratio": 0.5}}


def _sleep_then_ok(job):
    """Pool worker fake: blows the job budget on the first attempt
    (SIGALRM interrupts the sleep), then answers immediately."""
    if _first_attempt(os.environ[_MARKER_VAR]):
        time.sleep(30.0)
    return {"profile": {"streaming_ratio": 0.5, "readonly_ratio": 0.5}}


def _always_crash(job):
    """Pool worker fake: dies on every attempt."""
    os._exit(13)


class TestManifestRetries:
    """A killed or over-budget pool worker is retried, and the cell's
    manifest record says why, attempt by attempt."""

    def _cell(self, tmp_path, monkeypatch, fake, **kwargs):
        monkeypatch.setenv(_MARKER_VAR, str(tmp_path / "marker"))
        monkeypatch.setattr("repro.eval.campaign._cell_worker", fake)
        report = run_campaign(
            ["test-exp"], scale=SCALE, jobs=2, retries=1,
            specs={"test-exp": _spec(_smoke_like(["atax"],
                                                 kind="profile"))},
            **kwargs)
        (cell,) = report.manifest["experiments"]["test-exp"]["cells"]
        return report, cell

    def test_worker_death_is_retried_and_recorded(self, tmp_path,
                                                  monkeypatch):
        report, cell = self._cell(tmp_path, monkeypatch, _crash_then_ok)
        assert report.totals["failed"] == 0
        assert cell["status"] == "ok"
        assert cell["attempts"] == 2
        assert cell["retries"] == ["worker_died"]
        (rec,) = report.records["test-exp"]
        assert rec.retries == ["worker_died"]
        # ``repro inspect --cells`` shows the reason.
        assert "retried: worker_died" in format_campaign_manifest(
            report.manifest, verbose=True)

    def test_timeout_is_retried_and_recorded(self, tmp_path, monkeypatch):
        report, cell = self._cell(tmp_path, monkeypatch, _sleep_then_ok,
                                  timeout=0.5)
        assert report.totals["failed"] == 0
        assert cell["attempts"] == 2
        assert cell["retries"] == ["timeout"]

    def test_exhausted_retries_leave_a_failed_cell(self, tmp_path,
                                                   monkeypatch):
        report, cell = self._cell(tmp_path, monkeypatch, _always_crash)
        assert report.totals["failed"] == 1
        assert cell["status"] == "failed"
        assert cell["attempts"] == 2
        # The first death was retried; the second one was final.
        assert cell["retries"] == ["worker_died"]
        assert cell["error"].startswith("[worker_died]")


class TestRegistry:
    def test_every_experiment_declares_a_consistent_matrix(self):
        from repro.eval.experiments import EXPERIMENTS

        config = SimConfig()
        for name, spec in EXPERIMENTS.items():
            assert spec.name == name
            assert spec.provenance
            jobs = spec.jobs(None, config, SCALE)
            assert jobs, f"{name} expands to an empty matrix"
            for job in jobs:
                assert isinstance(job, JobSpec)
                assert job.experiment == name
                assert job.kind in ("run", "profile")
                assert job.scale == SCALE

    def test_classic_driver_matches_campaign(self, suite_runner):
        """The serial entry point and the campaign engine are the same
        computation: same cells, same aggregate."""
        from repro.eval.experiments import run_experiment

        serial = run_experiment("fig12", suite_runner, ["atax"])
        report = run_campaign(["fig12"], workloads=["atax"],
                              scale=suite_runner.scale, jobs=1)
        assert report.results["fig12"].series == serial.series


class TestCellMetrics:
    """collect_metrics: worker-side observer metrics come home to the
    manifest's ``metrics`` block (they are lost under
    ProcessPoolExecutor without state shipping)."""

    @staticmethod
    def _latency(metrics):
        return metrics["histograms"]["sim.demand_read_latency"]

    def test_pool_metrics_merged_into_parent(self, tmp_path):
        report = run_campaign(
            ["smoke"], scale=SCALE, jobs=2, store_dir=tmp_path,
            specs={"smoke": SMOKE_SPEC}, collect_metrics=True,
        )
        assert report.totals["failed"] == 0
        assert self._latency(report.manifest["metrics"])["count"] > 0

    def test_serial_matches_pool(self, tmp_path):
        from repro.obs.observer import Observer

        report = run_campaign(["smoke"], scale=SCALE, jobs=2,
                              store_dir=tmp_path / "pool",
                              specs={"smoke": SMOKE_SPEC},
                              collect_metrics=True)
        observer = Observer(timeseries=False)
        config = SimConfig()
        run_cells_serial(Runner(config=config, scale=SCALE,
                                observer=observer),
                         SMOKE_SPEC.jobs(None, config, SCALE))
        pool = self._latency(report.manifest["metrics"])
        serial = self._latency(observer.metrics.snapshot())
        assert pool["count"] == serial["count"]
        assert pool["sum"] == pytest.approx(serial["sum"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_merged_traffic_is_the_sum_over_the_cells(self, jobs):
        """ablation_mdc_size on atax runs three MDC sizes, none at the
        campaign's own config: the merged traffic counters must still
        count every executed cell's run."""
        report = run_campaign(["ablation_mdc_size"], workloads=["atax"],
                              scale=SCALE, jobs=jobs, collect_metrics=True)
        records = report.records["ablation_mdc_size"]
        assert len(records) == report.totals["executed"] == 3
        counters = report.manifest["metrics"]["counters"]
        for kind in ("data", "mac"):
            assert counters[f"traffic.{kind}_bytes"] == sum(
                getattr(rec.result.traffic, f"{kind}_bytes")
                for rec in records)

    def test_collect_metrics_excluded_from_cell_key(self):
        job = JobSpec(experiment="e", workload="atax", scheme="shm",
                      scale=SCALE, config=SimConfig())
        flagged = dataclasses.replace(job, collect_metrics=True)
        assert cell_key(job, "v1") == cell_key(flagged, "v1")

    def test_off_by_default_registry_untouched(self, tmp_path):
        report = run_campaign(["smoke"], scale=SCALE, jobs=2,
                              store_dir=tmp_path,
                              specs={"smoke": SMOKE_SPEC})
        assert "sim.demand_read_latency" not in \
            report.manifest["metrics"]["histograms"]
