"""Bit-identity of the batch loop and the per-access reference drive.

:meth:`MemoryPipeline.run_batch` fuses the window and the latency
accumulators of a per-access loop over :meth:`MemoryPipeline.access`;
for a scheme that parks no metadata in the L2 it also replays the
workload's resolved L2 outcomes, while the reference walks the live
L2.  The two must be *indistinguishable* in results — every serialised
field byte-equal — across the scheme zoo and across workload shapes
the batch boundary cares about: multi-kernel suites, composed suites
whose ``barrier: false`` phases merge into one kernel batch, and
kernels with zero accesses (an empty batch must advance kernel
bookkeeping without issuing anything).  The reference side runs under
the ``reference_drive`` fixture, and reads no resolved outcome.
"""

from __future__ import annotations

import pytest

from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner
from repro.workloads.base import Workload, WorkloadBuilder
from repro.workloads.compose import Composer, step
from repro.workloads.patterns import random_read, stream_read, stream_write

SCALE = 0.05

SCHEMES = ["naive", "pssm", "shm", "shm_cctr", "shm_vl2"]


def _run(workload, scheme: str):
    """One serialised run; ``workload`` is a suite name or a custom
    :class:`Workload`."""
    runner = Runner(scale=SCALE)
    if isinstance(workload, Workload):
        runner.add_workload(workload)
        name = workload.name
    else:
        name = workload
    return serialize_run_result(runner.run(name, scheme))


def _composed_suite() -> Workload:
    """Two tenants with a mid-kernel phase marker: the second phase
    rides in the first kernel batch (``barrier=False``), the third is
    a real kernel boundary."""
    return (
        Composer("eq_composed", bandwidth_utilization=0.5, seed=11)
        .buffer("a", "256KB")
        .buffer("b", "128KB")
        .phase("warm", step("sequential", "a"))
        .phase("spill", step("random", "b", count=400), barrier=False)
        .phase("rescan", step("sequential", "a"),
               step("stride", "b", stride=256), compose="concat")
        .build(scale=1.0)
    )


def _zero_access_workload() -> Workload:
    """Real kernels sandwiching an empty one (and an empty tail)."""
    builder = WorkloadBuilder("eq_zero", bandwidth_utilization=0.5, seed=3)
    buf = builder.alloc("data", 128 * 1024)
    builder.kernel("produce", stream_write(buf.address, buf.size))
    builder.kernel("sync_only", [])
    builder.kernel("consume",
                   stream_read(buf.address, buf.size)
                   + random_read(builder.rng, buf.address, buf.size, 200))
    builder.kernel("tail_empty", [])
    return builder.build()


def _both_drives(reference_drive, workload, scheme: str):
    batch = _run(workload, scheme)
    with reference_drive():
        reference = _run(workload, scheme)
    return batch, reference


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cores_agree_on_a_suite_workload(scheme, reference_drive):
    batch, reference = _both_drives(reference_drive, "atax", scheme)
    assert batch == reference


@pytest.mark.parametrize("scheme", ["naive", "shm", "shm_vl2"])
def test_cores_agree_on_an_irregular_workload(scheme, reference_drive):
    # bfs re-hits resident lines out of LRU order, which atax's
    # streams rarely do: a batch-loop hit that skipped its LRU move
    # agrees with the reference on atax but not here.
    batch, reference = _both_drives(reference_drive, "bfs", scheme)
    assert batch == reference


@pytest.mark.parametrize("scheme", ["naive", "shm"])
def test_cores_agree_on_a_composed_barrier_false_suite(scheme,
                                                       reference_drive):
    batch, reference = _both_drives(reference_drive, _composed_suite(),
                                    scheme)
    assert batch == reference


@pytest.mark.parametrize("scheme", ["pssm", "shm"])
def test_cores_agree_on_zero_access_kernels(scheme, reference_drive):
    batch, reference = _both_drives(reference_drive,
                                    _zero_access_workload(), scheme)
    assert batch == reference


@pytest.mark.parametrize("scheme,replayed", [("shm", True),
                                             ("shm_vl2", False)])
def test_only_the_reference_walks_a_non_victim_l2(scheme, replayed,
                                                  reference_drive):
    """A plain non-victim run replays its resolved L2 outcomes and
    leaves the L2 data caches untouched; the reference drive walks
    them, so the comparisons above set the replay against the live
    L2, not against itself.  Victim mode walks them on both sides."""
    from repro.common.config import SimConfig
    from repro.sim.gpu import GPUSimulator

    workload = Runner(scale=SCALE).workload("atax")

    def run():
        sim = GPUSimulator(SimConfig().with_scheme(scheme))
        result = serialize_run_result(sim.run(workload, max_inflight=256))
        return result, sum(bank.cache.accesses for part in sim.l2
                           for bank in part.banks)

    plain, plain_walks = run()
    with reference_drive():
        reference, reference_walks = run()
    assert plain == reference
    assert reference_walks > 0
    assert (plain_walks == 0) is replayed


def test_zero_access_kernels_run_to_completion():
    # An empty batch must neither crash nor contribute cycles beyond
    # its kernel-boundary bookkeeping.
    runner = Runner(scale=SCALE)
    workload = _zero_access_workload()
    runner.add_workload(workload)
    result = runner.run(workload.name, "shm")
    assert result.cycles > 0
    assert result.traffic.data_bytes > 0


class TestInstrumentationCoreSelection:
    """Instrumented runs take the batch loop.

    An :class:`Observer` is called from inside the batch loop, so an
    observed run never drops to the per-access path.  A
    :class:`DecisionLedger` taps at decision granularity inside the MEE
    and rides the same loop with the MEE's fused fast paths.
    """

    @staticmethod
    def _spy_on_run_batch(monkeypatch):
        """Record calls into the batch loop."""
        from repro.sim import pipeline as pipeline_mod

        calls = []
        original = pipeline_mod.MemoryPipeline.run_batch

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(pipeline_mod.MemoryPipeline, "run_batch", spy)
        return calls

    def test_observer_keeps_the_batch_loop(self, monkeypatch):
        from repro.obs.observer import Observer
        from repro.sim import pipeline as pipeline_mod

        runner = Runner(scale=SCALE, observer=Observer(timeseries=False))
        runner.calibration("atax")
        calls = self._spy_on_run_batch(monkeypatch)
        per_access = []
        original = pipeline_mod.MemoryPipeline.access

        def spy_access(self, *args):
            per_access.append(1)
            return original(self, *args)

        monkeypatch.setattr(pipeline_mod.MemoryPipeline, "access",
                            spy_access)
        runner.run("atax", "shm")
        assert calls
        assert not per_access

    def test_decision_ledger_keeps_the_event_core(self, monkeypatch):
        from repro.obs.decisions import DecisionLedger

        runner = Runner(scale=SCALE)
        runner.calibration("atax")
        # Attached after construction: the ledger is a plain settable
        # attribute, read per run().
        ledger = DecisionLedger()
        runner.ledger = ledger
        calls = self._spy_on_run_batch(monkeypatch)
        runner.run("atax", "shm")
        assert calls
        assert ledger.rows  # and the fused path actually recorded

    def test_ledger_export_identical_across_cores(self, reference_drive):
        from repro.obs.decisions import DecisionLedger

        def export() -> str:
            ledger = DecisionLedger()
            Runner(scale=SCALE, ledger=ledger).run("atax", "shm")
            return ledger.export_text()

        batch = export()
        with reference_drive():
            reference = export()
        assert batch == reference
        assert batch.count("\n") > 1  # not vacuously empty
