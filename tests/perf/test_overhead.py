"""The zero-overhead guard for disabled observability: the NULL
observer path must not add measurable host time.

Two layers of defence:

* **counting proxies** — disabled-path runs must never execute any
  hook body (the hot path is one local boolean branch), which is what
  makes the <5 % bound hold by construction;
* a **min-of-N timing ratio** between interleaved default-constructed
  and explicit-NULL runs (< 1.05), pinning the two spellings of "off"
  to the same cost.
"""

import gc
from time import perf_counter

from repro.common.types import Scheme
from repro.obs.observer import NULL_OBSERVER
from repro.sim.gpu import GPUSimulator
from repro.sim.runner import Runner
from tests.conftest import build_tiny_streaming


class TestCountingProxies:
    def test_default_construction_uses_shared_nulls(self):
        sim = GPUSimulator(Runner().config.with_scheme(Scheme.SHM))
        assert sim.obs is NULL_OBSERVER
        assert sim._observe is False


class TestTimingRatio:
    def test_null_path_within_5_percent_of_hookless(self):
        """Interleaved min-of-N: the run with the NULL observer passed
        explicitly vs the default (hook-free spelling) run.
        Both must hit the identical branch-only hot path, so the
        min-of-N ratio stays within the 5 % bound of the ISSUE.

        Whichever runner is constructed *second* measures consistently
        slower (10-20 % on this hot loop) purely from allocation-order
        locality — the effect reproduces with the variants swapped, so
        it is not hook overhead.  The test therefore measures both
        construction orders and takes the geometric mean of the two
        min-of-N ratios: the order bias multiplies one ratio and
        divides the other and so cancels, while a genuine null-path
        slowdown would survive in both and trip the bound.

        Every sample starts from a collected heap.  Each run promotes
        enough objects that a full (generation-2) collection falls due
        every second run, and since the two variants alternate, that
        40-70 ms pause otherwise lands on the same variant every time
        — in either construction order — and decides the ratio."""
        workload = build_tiny_streaming()

        def make_runner(explicit_nulls: bool) -> Runner:
            runner = (Runner(observer=NULL_OBSERVER)
                      if explicit_nulls else Runner())
            runner.add_workload(workload)
            runner.calibration(workload.name)  # outside the timed region
            return runner

        def sample(runner: Runner) -> float:
            runner.clear_results()
            gc.collect()
            start = perf_counter()
            runner.run(workload.name, Scheme.PSSM)
            return perf_counter() - start

        def min_ratio(null_constructed_first: bool,
                      base: list, nulls: list) -> float:
            if null_constructed_first:
                null_runner = make_runner(True)
                base_runner = make_runner(False)
            else:
                base_runner = make_runner(False)
                null_runner = make_runner(True)
            sample(base_runner)  # discard one warmup per variant
            sample(null_runner)
            for _ in range(5):
                base.append(sample(base_runner))
                nulls.append(sample(null_runner))
            return min(nulls) / min(base)

        # Samples accumulate across rounds, so a noisy round tightens
        # rather than resets the estimate: both variants run the
        # identical hot path, so with enough samples each min
        # approaches the true floor and the geomean the true ~1.0 —
        # one unlucky batch on a loaded machine must not fail a bound
        # it would meet a second later.
        base_bf, nulls_bf, base_nf, nulls_nf = [], [], [], []
        for _ in range(4):
            ratio = (min_ratio(False, base_bf, nulls_bf)
                     * min_ratio(True, base_nf, nulls_nf)) ** 0.5
            if ratio < 1.05:
                break
        assert ratio < 1.05


class TestCampaignTelemetryNullPath:
    """Campaign telemetry disabled (the default) must execute none of
    the event/store machinery — same counting-proxy defence as the
    observer: if the code is never called, the overhead is zero by
    construction."""

    def _run(self, counts, monkeypatch, **kwargs):
        import repro.obs.events as events_mod
        import repro.obs.store as store_mod
        from repro.common.types import Scheme as _Scheme
        from repro.eval.campaign import (ExperimentResult, ExperimentSpec,
                                         JobSpec, run_campaign)

        def count(name):
            def hook(*args, **kw):
                counts[name] += 1
            return hook

        monkeypatch.setattr(events_mod.EventLog, "emit", count("emit"))
        monkeypatch.setattr(events_mod, "spool_event", count("spool"))
        monkeypatch.setattr(store_mod.TelemetryStore, "record_campaign",
                            count("record"))

        def jobs(_workloads, config, scale):
            return [JobSpec(experiment="null", workload="atax",
                            kind="profile", scheme=_Scheme.SHM.value,
                            scale=scale, config=config)]

        def aggregate(records):
            return ExperimentResult("null")

        run_campaign(["null"], scale=0.05,
                     specs={"null": ExperimentSpec(
                         name="null", title="t", provenance="t",
                         jobs=jobs, aggregate=aggregate)},
                     **kwargs)

    def test_serial_campaign_never_touches_telemetry(self, monkeypatch):
        counts = {"emit": 0, "spool": 0, "record": 0}
        self._run(counts, monkeypatch, serial=True)
        assert counts == {"emit": 0, "spool": 0, "record": 0}

    def test_in_process_pool_path_never_spools(self, monkeypatch):
        """jobs=1 drives ``parallel._call`` in-process — the same code
        pool workers run — so this also proves the worker-side
        ``event_spool is None`` guard short-circuits."""
        counts = {"emit": 0, "spool": 0, "record": 0}
        self._run(counts, monkeypatch, jobs=1)
        assert counts == {"emit": 0, "spool": 0, "record": 0}
