"""The request pipeline (repro.sim.pipeline): lifecycle, observer
hooks and the teardown-flush completion fix."""

from __future__ import annotations

import contextlib
from dataclasses import replace

import pytest

from repro.common import constants
from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.mee import MemoryEncryptionEngine
from repro.sim.gpu import GPUSimulator
from repro.sim.pipeline import L2_HIT_LATENCY, MemoryPipeline
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
    pipeline = sim.pipeline
    completion = pipeline.access(0.0, 4096, False, 4)
    # L2: looked up and missed.
    assert pipeline.l2_stats.accesses == 1
    assert pipeline.l2_stats.misses == 1
    # Metadata: under SHM the miss fetched its decrypt-critical counter.
    assert pipeline.traffic.counter_bytes > 0
    # DRAM: the four missed sectors came from the home partition only.
    assert pipeline.traffic.data_bytes == 4 * constants.SECTOR_SIZE
    home = sim.mapper.to_local(4096).partition
    assert [p for p, ch in enumerate(sim.channels)
            if ch.stats.requests] == [home]
    # Complete: only once the fetch crossed the DRAM channel.
    assert completion > sim.channels[home].latency > L2_HIT_LATENCY


def test_l2_hit_completes_at_hit_latency():
    sim = _sim()
    sim.pipeline.access(0.0, 4096, False, 4)
    assert sim.pipeline.access(1000.0, 4096, False, 4) \
        == 1000.0 + L2_HIT_LATENCY
    assert sim.pipeline.l2_stats.accesses == 2
    assert sim.pipeline.l2_stats.misses == 1


def test_write_requests_are_posted():
    sim = _sim()
    assert sim.pipeline.access(5.0, 4096, True, 4) == 5.0 + L2_HIT_LATENCY
    # Allocated in the L2 without a fetch: nothing reached DRAM.
    assert sim.pipeline.l2_stats.misses == 0
    assert sim.pipeline.traffic.total_bytes == 0


class _Recorder:
    """An enabled observer that records every hook call in order."""

    enabled = True

    def __init__(self) -> None:
        self.events: list = []

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.events.append((name, args))


def test_custom_hooks_see_lifecycle_transitions():
    recorder = _Recorder()
    sim = GPUSimulator(SimConfig().with_scheme(Scheme.SHM),
                       observer=recorder)
    sim.pipeline.access(0.0, 4096, False, 4)
    names = [name for name, _ in recorder.events]
    assert names.count("l2_access") == 1
    lookup = names.index("l2_access")
    assert recorder.events[lookup][1][2] is True  # the lookup missed
    data = [i for i, (name, args) in enumerate(recorder.events)
            if name == "traffic" and args[2] == "data"]
    assert len(data) == 1
    assert recorder.events[data[0]][1][3] == 4 * constants.SECTOR_SIZE
    # Lookup, then the MEE's metadata walk, then the demand transfer.
    assert lookup < names.index("mee_op") < data[0]


# ---------------------------------------------------------------------------
# Traffic-kind dispatch: unknown kinds must fail loudly
# ---------------------------------------------------------------------------

def test_schedule_books_builtin_kinds_to_their_counters():
    """The MEE's emission funnel books each built-in kind to its own
    traffic counter."""
    sim = _sim()
    place = sim.mees[0]._place
    place(0, -1, 128, False, "data", False)
    place(0, -1, 8, False, "ctr", True)
    place(0, -1, 8, True, "mac", False)
    place(0, -1, 64, False, "bmt", False)
    place(0, -1, 32, False, "mispred", False)
    traffic = sim.pipeline.traffic
    assert traffic.data_bytes == 128
    assert traffic.counter_bytes == 8
    assert traffic.mac_bytes == 8
    assert traffic.bmt_bytes == 64
    assert traffic.misprediction_bytes == 32


def test_schedule_rejects_unregistered_kind():
    sim = _sim()
    # An unknown kind used to be silently booked as demand data,
    # corrupting every overhead ratio built from the breakdown.
    with pytest.raises(ValueError, match="unknown DRAM transfer kind 'ecc'"):
        sim.mees[0]._place(0, -1, 32, False, "ecc", False)
    assert sim.pipeline.traffic.total_bytes == 0
    assert sim.channels[0].stats.requests == 0


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

@pytest.mark.parametrize("drive", ["event", "reference"])
def test_read_miss_displaced_dirty_data_is_written_back(drive, monkeypatch,
                                                       reference_drive):
    """Under SHM_vL2 a read miss's metadata walk can park a victim line
    in the L2 that displaces a dirty data line.  That line must reach
    the secure write path before the next read miss, in the batch loop
    and in the per-access reference drive."""
    pending = []
    displaced = []
    on_read_miss = MemoryEncryptionEngine.on_read_miss
    writeback = MemoryPipeline.writeback

    def spy_read_miss(mee, *args):
        assert not pending, "displaced dirty data lines were dropped"
        ctr_done = on_read_miss(mee, *args)
        # The walk leaves its displaced lines on the MEE for the
        # pipeline to write back.
        pending.extend(d.line_key for d in mee.displaced)
        displaced.extend(mee.displaced)
        return ctr_done

    def spy_writeback(pipeline, issue, key, dirty_sectors):
        if key in pending:
            pending.remove(key)
        return writeback(pipeline, issue, key, dirty_sectors)

    monkeypatch.setattr(MemoryEncryptionEngine, "on_read_miss", spy_read_miss)
    monkeypatch.setattr(MemoryPipeline, "writeback", spy_writeback)
    config = SimConfig().with_scheme(Scheme.SHM_VL2)
    with (reference_drive() if drive == "reference"
          else contextlib.nullcontext()):
        GPUSimulator(config).run(build_tiny_random(), max_inflight=64)
    assert displaced, "the workload no longer displaces dirty data"
    assert not pending
