"""The typed request pipeline (repro.sim.pipeline): lifecycle,
observer hooks and the teardown-flush completion fix."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common import constants
from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.mee import DRAMRequest, MEEResult, MemoryEncryptionEngine
from repro.sim.gpu import GPUSimulator
from repro.sim.pipeline import (
    L2_HIT_LATENCY,
    MemoryPipeline,
    TRAFFIC_KIND_COUNTERS,
    MemoryRequest,
    PipelineHooks,
    Stage,
    register_traffic_kind,
)
from tests.conftest import build_tiny_random, build_tiny_streaming


def _sim(scheme=Scheme.SHM, **gpu_overrides) -> GPUSimulator:
    config = SimConfig().with_scheme(scheme)
    if gpu_overrides:
        config = replace(config, gpu=replace(config.gpu, **gpu_overrides))
    return GPUSimulator(config)


# ---------------------------------------------------------------------------
# Request lifecycle
# ---------------------------------------------------------------------------

def test_read_request_walks_lifecycle():
    sim = _sim()
    request = sim.pipeline.access(0.0, 4096, False, 4)
    assert isinstance(request, MemoryRequest)
    assert request.stage is Stage.COMPLETE
    assert request.l2_miss and request.fetch_sectors
    assert request.partition == sim.mapper.to_local(4096).partition
    assert request.completion >= L2_HIT_LATENCY
    # A decrypt-critical counter fetch gates the miss under SHM.
    assert request.ctr_done > 0.0


def test_l2_hit_completes_at_hit_latency():
    sim = _sim()
    sim.pipeline.access(0.0, 4096, False, 4)
    hit = sim.pipeline.access(1000.0, 4096, False, 4)
    assert not hit.l2_miss
    assert hit.completion == 1000.0 + L2_HIT_LATENCY


def test_write_requests_are_posted():
    sim = _sim()
    request = sim.pipeline.access(5.0, 4096, True, 4)
    assert request.stage is Stage.COMPLETE
    assert request.completion == 5.0 + L2_HIT_LATENCY


def test_custom_hooks_see_lifecycle_transitions():
    events = []

    class Recorder(PipelineHooks):
        enabled = True

        def l2_checked(self, request):
            events.append(("l2", request.l2_miss))

        def metadata_request(self, issue, dram_request, done):
            events.append(("meta", dram_request.kind))

        def data_transfer(self, issue, partition, size, is_write):
            events.append(("data", size))

        def completed(self, request):
            events.append(("done", request.stage))

    sim = _sim()
    sim.pipeline.hooks = Recorder()
    sim.pipeline._observe = True
    sim.pipeline.access(0.0, 4096, False, 4)
    kinds = [e[0] for e in events]
    assert kinds.count("l2") == 1 and kinds.count("done") == 1
    assert "meta" in kinds and "data" in kinds
    assert events[-1] == ("done", Stage.COMPLETE)
    assert ("l2", True) in events


# ---------------------------------------------------------------------------
# Traffic-kind dispatch: unknown kinds must fail loudly
# ---------------------------------------------------------------------------

def test_schedule_books_builtin_kinds_to_their_counters():
    sim = _sim()
    result = MEEResult(requests=[
        DRAMRequest(partition=0, size=128, is_write=False, kind="data"),
        DRAMRequest(partition=0, size=8, is_write=False, kind="ctr",
                    critical=True),
        DRAMRequest(partition=0, size=8, is_write=True, kind="mac"),
        DRAMRequest(partition=0, size=64, is_write=False, kind="bmt"),
        DRAMRequest(partition=0, size=32, is_write=False, kind="mispred"),
    ])
    sim.pipeline.schedule(0.0, result)
    traffic = sim.pipeline.traffic
    assert traffic.data_bytes == 128
    assert traffic.counter_bytes == 8
    assert traffic.mac_bytes == 8
    assert traffic.bmt_bytes == 64
    assert traffic.misprediction_bytes == 32


def test_schedule_rejects_unregistered_kind():
    sim = _sim()
    bogus = MEEResult(requests=[
        DRAMRequest(partition=0, size=32, is_write=False, kind="ecc"),
    ])
    # An unknown kind used to be silently booked as demand data,
    # corrupting every overhead ratio built from the breakdown.
    with pytest.raises(ValueError, match="unregistered DRAM request kind"):
        sim.pipeline.schedule(0.0, bogus)


def test_register_traffic_kind_makes_kind_schedulable():
    register_traffic_kind("ecc_test", "mac_bytes")
    try:
        sim = _sim()
        sim.pipeline.schedule(0.0, MEEResult(requests=[
            DRAMRequest(partition=0, size=48, is_write=False,
                        kind="ecc_test"),
        ]))
        assert sim.pipeline.traffic.mac_bytes == 48
    finally:
        del TRAFFIC_KIND_COUNTERS["ecc_test"]


def test_register_traffic_kind_validates_counter_attr():
    with pytest.raises(ValueError, match="unknown TrafficCounters"):
        register_traffic_kind("bogus_kind", "no_such_counter")
    assert "bogus_kind" not in TRAFFIC_KIND_COUNTERS


# ---------------------------------------------------------------------------
# final_flush: teardown write-backs must propagate their completion
# ---------------------------------------------------------------------------

def _dirty_teardown_pipeline(scheme, **gpu_overrides):
    """Leave every partition's L2 full of dirty lines, then flush."""
    sim = _sim(scheme, **gpu_overrides)
    issue = 0.0
    for i in range(512):
        issue = i * 2.0
        sim.pipeline.access(issue, i * constants.BLOCK_SIZE, True,
                            constants.SECTORS_PER_BLOCK)
    return sim, issue


@pytest.mark.parametrize("scheme", [Scheme.UNPROTECTED, Scheme.SHM])
def test_final_flush_returns_last_teardown_completion(scheme):
    sim, last_issue = _dirty_teardown_pipeline(scheme)
    end = last_issue + L2_HIT_LATENCY
    done = sim.pipeline.final_flush(end)
    # The teardown write-backs land on the channels *after* ``end``;
    # their completion must come back to the caller, not be discarded.
    assert done > end
    busy = max(ch.next_free + ch.latency for ch in sim.channels
               if ch.stats.requests)
    assert done == busy


def test_final_flush_is_noop_when_nothing_is_dirty():
    sim = _sim(Scheme.SHM)
    assert sim.pipeline.final_flush(123.0) == 123.0


def test_final_flush_drains_deferred_scheduler_writes():
    sim, last_issue = _dirty_teardown_pipeline(
        Scheme.SHM, dram_scheduler="critical_first")
    sim.pipeline.final_flush(last_issue + L2_HIT_LATENCY)
    for ch in sim.channels:
        assert ch.scheduler.pending_writes == 0


def test_run_cycles_cover_teardown_writebacks():
    """End-to-end: a write-heavy run's cycle count includes the flush."""
    workload = build_tiny_random()
    sim = _sim(Scheme.SHM)
    result = sim.run(workload, max_inflight=256)
    busy_end = max(ch.next_free + ch.latency for ch in sim.channels
                   if ch.stats.requests)
    assert result.cycles >= busy_end


def test_streams_recorded_through_pipeline():
    workload = build_tiny_streaming()
    config = SimConfig().with_scheme(Scheme.UNPROTECTED)
    sim = GPUSimulator(config, record_stream=True)
    sim.run(workload, max_inflight=256)
    assert sum(len(s) for s in sim.streams.values()) > 0


# ---------------------------------------------------------------------------
# Victim-cache displacement on the read path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("core", ["event", "legacy"])
def test_read_miss_displaced_dirty_data_is_written_back(core, monkeypatch):
    """Under SHM_vL2 a read miss's metadata walk can park a victim line
    in the L2 that displaces a dirty data line.  That line must reach
    the secure write path before the next read miss, on both cores."""
    pending = []
    displaced = []
    on_read_miss = MemoryEncryptionEngine.on_read_miss
    writeback = MemoryPipeline.writeback

    def spy_read_miss(mee, *args):
        assert not pending, "displaced dirty data lines were dropped"
        result = on_read_miss(mee, *args)
        pending.extend(d.line_key for d in result.displaced_data)
        displaced.extend(result.displaced_data)
        return result

    def spy_writeback(pipeline, issue, eviction):
        if eviction.key in pending:
            pending.remove(eviction.key)
        return writeback(pipeline, issue, eviction)

    monkeypatch.setattr(MemoryEncryptionEngine, "on_read_miss", spy_read_miss)
    monkeypatch.setattr(MemoryPipeline, "writeback", spy_writeback)
    config = replace(SimConfig(), core=core).with_scheme(Scheme.SHM_VL2)
    GPUSimulator(config).run(build_tiny_random(), max_inflight=64)
    assert displaced, "the workload no longer displaces dirty data"
    assert not pending
