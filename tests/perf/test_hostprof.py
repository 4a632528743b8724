"""Host-time stack sampler: the module -> layer fold, the report, signal
hygiene, and what a sampled ``repro inspect --host-profile`` run must
preserve (the unsampled code path and its results)."""

import json
import signal
import threading
import time

import pytest

from repro.cli import main
from repro.common.types import Scheme
from repro.eval.campaign import serialize_run_result
from repro.perf.hostprof import (
    HOST_PROFILE_FORMAT,
    INTERVAL_S,
    LAYERS,
    HostSampler,
    fold,
    layer_of,
)
from repro.sim.pipeline import MemoryPipeline
from repro.sim.runner import Runner


class TestFold:
    @pytest.mark.parametrize("module, function, layer", [
        ("repro.sim.gpu", "run", "frontend"),
        ("repro.sim.events", "drain", "frontend"),
        ("repro.sim.pipeline", "translate_batch", "translate"),
        ("repro.sim.pipeline", "run_batch", "pipeline"),
        ("repro.sim.pipeline", "writeback", "pipeline"),
        ("repro.memory.l2", "access_data_range", "l2"),
        ("repro.memory.cache", "access_range", "l2"),
        ("repro.memory.mshr", "allocate_burst", "l2"),
        ("repro.core.mee", "_ctr_access", "mee"),
        ("repro.core.policies.mac", "access", "mee"),
        ("repro.metadata.caches", "access", "metadata"),
        ("repro.metadata.bmt", "walk", "metadata"),
        ("repro.memory.dram", "occupy", "dram"),
        ("repro.memory.sched", "service", "dram"),
        ("repro.obs.metrics", "record_many", "obs"),
        ("repro.sim.runner", "simulate", "setup"),
        ("repro.workloads.suite", "build", "setup"),
        ("repro", "<module>", "setup"),
    ])
    def test_layer_table(self, module, function, layer):
        assert layer_of(module, function) == layer

    def test_translate_is_split_out_of_the_pipeline_module_only(self):
        assert layer_of("repro.sim.gpu", "translate_batch") == "frontend"

    def test_prefixes_match_whole_module_names(self):
        assert layer_of("repro.memory.l2x", "f") == "setup"
        assert layer_of("repro.corex", "f") == "setup"

    def test_non_repro_frames_have_no_layer(self):
        for module in ("heapq", "copy", "__main__", "reprocessing",
                       "tests.perf.test_hostprof", ""):
            assert layer_of(module, "f") is None

    def test_innermost_repro_frame_wins(self):
        stack = [("copy", "deepcopy"),
                 ("repro.metadata.caches", "access"),
                 ("repro.core.mee", "_ctr_access"),
                 ("repro.sim.pipeline", "run_batch")]
        assert fold(stack) == "metadata"

    def test_stack_without_repro_frame_is_other(self):
        assert fold([("heapq", "heappush"), ("__main__", "<module>")]) \
            == "other"
        assert fold([]) == "other"


class TestReport:
    def test_zero_samples_report_zero_shares(self):
        report = HostSampler().report()
        assert report["samples"] == 0
        assert report["wall_s"] == 0.0 and report["sampler_s"] == 0.0
        assert report["shares"] == dict.fromkeys(LAYERS, 0.0)

    def test_shares_are_sample_fractions(self):
        sampler = HostSampler()
        sampler.counts.update(mee=3, l2=5, other=2)
        report = sampler.report()
        assert report["samples"] == 10
        assert report["shares"]["l2"] == 0.5
        assert report["shares"]["frontend"] == 0.0
        assert sum(report["shares"].values()) == pytest.approx(1.0, abs=1e-9)


def _burn_until_sampled(sampler, cpu_seconds=5.0):
    deadline = time.process_time() + cpu_seconds
    while not sum(sampler.counts.values()) \
            and time.process_time() < deadline:
        sum(range(1000))


class TestSignalHygiene:
    @pytest.fixture
    def previous(self):
        """A foreign SIGPROF handler and a long ITIMER_PROF, torn down
        after the test."""
        def handler(signum, frame):  # pragma: no cover - never fires
            pass

        old_handler = signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, 100.0, 50.0)
        yield handler
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, old_handler)

    def test_samples_while_armed(self):
        with HostSampler() as sampler:
            _burn_until_sampled(sampler)
        # The burning frame is this test module: no repro frame.
        assert sampler.counts["other"] >= 1
        assert sampler.wall_s > 0.0 and sampler.sampler_s > 0.0

    def test_restores_previous_handler_and_timer(self, previous):
        with HostSampler() as sampler:
            assert signal.getsignal(signal.SIGPROF) == sampler._sample
            assert signal.getitimer(signal.ITIMER_PROF)[1] == \
                pytest.approx(INTERVAL_S, abs=0.004)
            _burn_until_sampled(sampler)
        assert signal.getsignal(signal.SIGPROF) is previous
        value, interval = signal.getitimer(signal.ITIMER_PROF)
        assert interval == pytest.approx(50.0, abs=0.1)
        # The kernel rounds CPU-time timers to its tick.
        assert 90.0 < value < 101.0

    def test_restores_on_exception(self, previous):
        with pytest.raises(KeyError):
            with HostSampler():
                raise KeyError("boom")
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF)[1] == \
            pytest.approx(50.0, abs=0.1)

    def test_default_disposition_restored_and_timer_disarmed(self):
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
        with HostSampler():
            pass
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


class TestPlatformGuards:
    def test_off_main_thread_raises(self):
        errors = []

        def enter():
            try:
                with HostSampler():
                    pass
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(errors) == 1 and "main thread" in str(errors[0])
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL

    def test_without_setitimer_raises(self, monkeypatch):
        monkeypatch.delattr(signal, "setitimer")
        with pytest.raises(RuntimeError, match="setitimer"):
            with HostSampler():
                pass  # pragma: no cover - never entered


SCHEMES = ("pssm", "shm", "shm_vl2", "unprotected")


class TestSnapshotShape:
    def test_schema_fields(self, profiled):
        doc, _ = profiled
        assert doc["host_profile_format"] == HOST_PROFILE_FORMAT == 2
        assert doc["interval_s"] == INTERVAL_S
        for run in doc["runs"].values():
            assert set(run) == {"wall_s", "samples", "sampler_s", "shares"}
            assert set(run["shares"]) == set(LAYERS)
            assert run["samples"] >= 1


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One ``repro inspect --host-profile`` run with a spy on its batch
    loop recording, per call, the scheme and whether the sampler was
    armed."""
    path = tmp_path_factory.mktemp("hostprof") / "host-profile.json"
    calls = []
    original = MemoryPipeline.run_batch

    def spy(pipeline, window, accesses, latency):
        handler = signal.getsignal(signal.SIGPROF)
        calls.append({
            "scheme": pipeline.config.scheme.label,
            "sampled": isinstance(getattr(handler, "__self__", None),
                                  HostSampler),
        })
        return original(pipeline, window, accesses, latency)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryPipeline, "run_batch", spy)
        assert main(["inspect", "--host-profile", "--workload", "atax",
                     "--scheme", *SCHEMES, "--scale", "0.05",
                     "--profile-json", str(path)]) == 0
    return json.loads(path.read_text()), calls


class TestEndToEnd:
    def test_sampled_runs_keep_the_fast_paths(self, profiled):
        """Every requested scheme ran the batch loop under the armed
        sampler (which changes no code path: there is only one)."""
        _, calls = profiled
        sampled = [call for call in calls if call["sampled"]]
        assert {call["scheme"] for call in sampled} == set(SCHEMES)

    def test_coverage_at_least_95_percent(self, profiled):
        """Every sample lands in exactly one layer, and a sampled run
        always has a repro frame on the stack."""
        doc, _ = profiled
        for run in doc["runs"].values():
            assert sum(run["shares"].values()) == pytest.approx(1.0,
                                                                abs=1e-9)
            assert run["shares"]["other"] <= 0.05

    def test_runs_labelled_workload_slash_scheme(self, profiled):
        doc, _ = profiled
        assert set(doc["runs"]) == {f"atax/{s}" for s in SCHEMES}

    def test_profiled_runs_are_not_cached(self, profiled):
        """``unprotected`` is simulated under the sampler, not served
        from the calibration baseline."""
        _, calls = profiled
        assert any(call["sampled"] and call["scheme"] == "unprotected"
                   for call in calls)

    def test_profiling_does_not_change_simulation(self):
        runner = Runner(scale=0.05)
        for scheme in ("pssm", "shm", "shm_vl2", "shm_bandit"):
            plain = runner.simulate("atax", scheme)
            with HostSampler():
                sampled = runner.simulate("atax", scheme)
            assert (json.dumps(serialize_run_result(sampled),
                               sort_keys=True)
                    == json.dumps(serialize_run_result(plain),
                                  sort_keys=True)), scheme

    def test_sampler_overhead_under_ten_percent(self):
        runner = Runner(scale=0.1)
        runner.calibration("bfs")
        with HostSampler() as sampler:
            runner.simulate("bfs", Scheme.SHM)
        report = sampler.report()
        assert report["samples"] >= 1
        assert report["sampler_s"] / report["wall_s"] < 0.10
