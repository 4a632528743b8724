"""The pluggable DRAM scheduler layer (repro.memory.sched)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import GPUConfig
from repro.memory.dram import DRAMChannel
from repro.memory.sched import (
    BankedScheduler,
    CriticalFirstScheduler,
    FIFOScheduler,
    available_schedulers,
    build_scheduler,
    register_scheduler,
)


def _channel(scheduler=None, **kwargs):
    defaults = dict(bytes_per_cycle=32.0, latency=100,
                    request_overhead=0.0, turnaround=0.0)
    defaults.update(kwargs)
    return DRAMChannel(scheduler=scheduler, **defaults)


# ---------------------------------------------------------------------------
# FIFO: bit-identical to the raw occupy path
# ---------------------------------------------------------------------------

def test_fifo_matches_direct_occupy():
    sched = _channel(FIFOScheduler(), request_overhead=8.0, turnaround=12.0)
    direct = _channel(request_overhead=8.0, turnaround=12.0)
    pattern = [(0.0, 128, False), (1.0, 32, True), (5.0, 256, False),
               (400.0, 64, True)]
    for arrival, size, is_write in pattern:
        assert (sched.service(arrival, size, is_write)
                == direct.occupy(arrival, size, is_write))
    assert sched.next_free == direct.next_free
    assert sched.stats.busy_cycles == direct.stats.busy_cycles


# ---------------------------------------------------------------------------
# Critical-first: defer / gap-fit / overflow / drain
# ---------------------------------------------------------------------------

def test_critical_first_defers_mac_and_bmt_writes():
    ch = _channel(CriticalFirstScheduler(capacity=8))
    # The posted estimate covers the write's own transfer time plus
    # everything buffered ahead of it: 32 B / 32 B-per-cycle = 1 cycle
    # per entry (no overhead/turnaround in this channel).
    done_first = ch.service(0.0, 32, is_write=True, kind="mac")
    assert done_first == ch.next_free + 1.0 + ch.latency
    done_second = ch.service(0.0, 32, is_write=True, kind="bmt")
    assert done_second == ch.next_free + 2.0 + ch.latency
    assert done_second > done_first  # queued behind the first write
    assert ch.stats.requests == 0  # nothing touched the bus
    assert ch.scheduler.pending_writes == 2


def test_critical_first_never_defers_critical_or_non_deferrable():
    ch = _channel(CriticalFirstScheduler(capacity=8))
    ch.service(0.0, 32, is_write=True, kind="mac", critical=True)
    ch.service(0.0, 32, is_write=True, kind="ctr")
    ch.service(0.0, 32, is_write=True, kind="data")
    ch.service(0.0, 128, is_write=False, kind="mac")  # reads always issue
    assert ch.stats.requests == 4
    assert ch.scheduler.pending_writes == 0


def test_critical_first_never_defers_a_data_write():
    """Demand data alone: every transfer lands where FIFO puts it."""
    kwargs = dict(request_overhead=8.0, turnaround=12.0)
    cf = _channel(CriticalFirstScheduler(capacity=1), **kwargs)
    fifo = _channel(FIFOScheduler(), **kwargs)
    pattern = [(0.0, 128, True), (0.0, 32, True), (3.0, 64, False),
               (500.0, 32, True), (501.0, 128, True), (900.0, 96, False)]
    for arrival, size, is_write in pattern:
        assert (cf.service(arrival, size, is_write, kind="data")
                == fifo.service(arrival, size, is_write, kind="data"))
        assert cf.scheduler.pending_writes == 0
    assert cf.drain() == fifo.drain() == 0.0
    assert (cf.next_free, cf.stats.busy_cycles, cf.stats.requests) \
        == (fifo.next_free, fifo.stats.busy_cycles, fifo.stats.requests)


def test_critical_first_gap_fits_before_demand_traffic():
    ch = _channel(CriticalFirstScheduler(capacity=8))
    ch.service(0.0, 32, is_write=True, kind="mac")  # 1-cycle occupancy
    # The demand read arrives long after the buffered write would
    # finish: the write issues into the idle gap and costs it nothing.
    done = ch.service(50.0, 128, is_write=False)
    assert ch.scheduler.pending_writes == 0
    assert ch.stats.requests == 2
    assert done == 50.0 + 128 / 32.0 + ch.latency


def test_critical_first_holds_writes_that_do_not_fit_the_gap():
    ch = _channel(CriticalFirstScheduler(capacity=8))
    ch.service(0.0, 3200, is_write=True, kind="mac")  # 100-cycle occupancy
    done = ch.service(10.0, 128, is_write=False)  # gap too small
    assert ch.scheduler.pending_writes == 1
    assert done == 10.0 + 128 / 32.0 + ch.latency


def test_critical_first_posted_estimate_covers_queue_and_turnaround():
    ch = _channel(CriticalFirstScheduler(capacity=8),
                  request_overhead=8.0, turnaround=12.0)
    # Bus idle, in read mode.  The first drained write pays its own
    # request overhead + transfer (8 + 32/32 = 9 cycles) plus one
    # read->write turnaround.  The old estimate (next_free + latency)
    # pretended the write occupied no bus time at all.
    done_first = ch.service(0.0, 32, is_write=True, kind="mac")
    assert done_first == pytest.approx(9.0 + 12.0 + ch.latency)
    # The second write queues behind the first: one more 9-cycle slot,
    # but the turnaround is paid only once by the buffered burst.
    done_second = ch.service(0.0, 32, is_write=True, kind="bmt")
    assert done_second == pytest.approx(18.0 + 12.0 + ch.latency)


def test_critical_first_posted_estimate_skips_turnaround_in_write_mode():
    ch = _channel(CriticalFirstScheduler(capacity=8),
                  request_overhead=8.0, turnaround=12.0)
    ch.service(0.0, 32, is_write=True, kind="data")  # bus now in write mode
    next_free = ch.next_free
    done = ch.service(0.0, 32, is_write=True, kind="mac")
    assert done == pytest.approx(next_free + 9.0 + ch.latency)


def test_critical_first_posted_estimates_grow_monotonically():
    ch = _channel(CriticalFirstScheduler(capacity=32),
                  request_overhead=8.0, turnaround=12.0)
    previous = 0.0
    for i in range(16):
        done = ch.service(float(i), 32, is_write=True, kind="mac")
        # Each deferral queues behind everything already buffered, so
        # the posted estimates must be strictly increasing.
        assert done > previous
        previous = done


def test_critical_first_posted_write_never_completes_before_it_arrives():
    # Idle bus: the queue estimate counts from next_free (cycle 0), a
    # whole 1000 cycles behind the write it prices.  A write posted as
    # done before it arrived gives observers a negative MEE-op span.
    ch = _channel(CriticalFirstScheduler(capacity=8))
    done = ch.service(1000.0, 32, is_write=True, kind="mac")
    assert ch.scheduler.pending_writes == 1
    assert done >= 1000.0 + ch.latency


def test_critical_first_gap_fit_charges_both_turnaround_flips():
    # Issuing a buffered write from read mode flips the bus twice:
    # write entry and read return.  Full cost of the 32 B write is
    # 32/32 + 12 + 12 = 25 cycles; a 20-cycle gap fits the write and
    # its entry flip (13) but not the return flip, so gap-filling here
    # would delay the demand read it was meant to stay clear of.
    ch = _channel(CriticalFirstScheduler(capacity=8), turnaround=12.0)
    ch.service(0.0, 32, is_write=True, kind="mac")
    done = ch.service(20.0, 128, is_write=False)
    assert ch.scheduler.pending_writes == 1
    # The read proceeds untouched, still in read mode: no turnaround.
    assert done == pytest.approx(20.0 + 4.0 + ch.latency)


def test_critical_first_gap_fit_issues_when_both_flips_fit():
    ch = _channel(CriticalFirstScheduler(capacity=8), turnaround=12.0)
    ch.service(0.0, 32, is_write=True, kind="mac")
    done = ch.service(40.0, 128, is_write=False)  # gap 40 >= 25
    assert ch.scheduler.pending_writes == 0
    assert ch.stats.requests == 2
    # The read pays the read-return turnaround the fit check budgeted
    # for — and nothing more (the write's occupancy ended inside the
    # gap: bus free at 13, read starts at its own arrival).
    assert done == pytest.approx(40.0 + 4.0 + 12.0 + ch.latency)


def test_critical_first_overflow_forced_issue_prices_remaining_queue():
    ch = _channel(CriticalFirstScheduler(capacity=2), request_overhead=8.0)
    ch.service(0.0, 32, is_write=True, kind="mac")
    ch.service(1.0, 32, is_write=True, kind="mac")
    done = ch.service(2.0, 32, is_write=True, kind="mac")  # overflow
    # The oldest entry was forced onto the bus (8 + 1 = 9 cycles)...
    assert ch.stats.requests == 1
    assert ch.next_free == pytest.approx(9.0)
    assert ch.scheduler.pending_writes == 2
    # ...and the newest write's estimate queues behind both the bus
    # and the two entries still buffered ahead of it.
    assert done == pytest.approx(9.0 + 2 * 9.0 + ch.latency)


def test_critical_first_overflow_forces_oldest_out():
    ch = _channel(CriticalFirstScheduler(capacity=2))
    for i in range(3):
        ch.service(float(i), 32, is_write=True, kind="mac")
    assert ch.scheduler.pending_writes == 2
    assert ch.stats.requests == 1  # the overflow victim reached the bus


def test_critical_first_drain_flushes_everything():
    ch = _channel(CriticalFirstScheduler(capacity=8))
    for i in range(4):
        ch.service(float(i), 32, is_write=True, kind="bmt")
    done = ch.drain()
    assert ch.scheduler.pending_writes == 0
    assert ch.stats.requests == 4
    assert done == ch.next_free + ch.latency
    assert ch.drain() == 0.0  # idempotent when empty


def test_critical_first_conserves_bytes():
    fifo = _channel(FIFOScheduler())
    cf = _channel(CriticalFirstScheduler(capacity=4))
    for ch in (fifo, cf):
        for i in range(8):
            ch.service(float(i), 64, is_write=True, kind="mac")
            ch.service(float(i), 128, is_write=False)
        ch.drain()
    assert cf.stats.total_bytes == fifo.stats.total_bytes
    assert cf.stats.write_bytes == fifo.stats.write_bytes


def test_critical_first_validates_capacity():
    with pytest.raises(ValueError):
        CriticalFirstScheduler(capacity=0)


# ---------------------------------------------------------------------------
# Banked: open-row hits vs misses
# ---------------------------------------------------------------------------

def test_banked_row_miss_then_hit():
    sched = BankedScheduler(num_banks=4, row_bytes=2048, row_miss_penalty=20.0)
    ch = _channel(sched)
    first = ch.service(0.0, 32, address=0)        # row miss: +20
    assert first == 32 / 32.0 + 20.0 + ch.latency
    ch.service(first, 32, address=64)             # same 2 KB row: hit
    assert ch.stats.busy_cycles == pytest.approx(21.0 + 1.0)


def test_banked_rows_are_per_bank():
    sched = BankedScheduler(num_banks=2, row_bytes=64, row_miss_penalty=20.0)
    ch = _channel(sched)
    ch.service(0.0, 32, address=0)    # bank 0, row 0 — miss
    ch.service(0.0, 32, address=64)   # bank 1, row 0 — miss
    busy = ch.stats.busy_cycles
    ch.service(0.0, 32, address=0)    # bank 0 still open — hit
    assert ch.stats.busy_cycles - busy == pytest.approx(1.0)
    ch.service(0.0, 32, address=128)  # bank 0, row 1 — evicts the row
    busy = ch.stats.busy_cycles
    ch.service(0.0, 32, address=0)    # row 0 closed again — miss
    assert ch.stats.busy_cycles - busy == pytest.approx(21.0)


def test_banked_addressless_transactions_bypass_row_model():
    ch = _channel(BankedScheduler(num_banks=4, row_miss_penalty=20.0))
    ch.service(0.0, 32)  # address defaults to -1
    assert ch.stats.busy_cycles == pytest.approx(1.0)


def test_banked_validates_geometry():
    with pytest.raises(ValueError):
        BankedScheduler(num_banks=0)
    with pytest.raises(ValueError):
        BankedScheduler(row_bytes=1000)  # not a power of two
    with pytest.raises(ValueError):
        BankedScheduler(row_miss_penalty=-1.0)


# ---------------------------------------------------------------------------
# The registry (GPUConfig.dram_scheduler knob)
# ---------------------------------------------------------------------------

def test_builtin_disciplines_are_registered():
    assert {"fifo", "critical_first", "banked"} <= set(available_schedulers())


def test_build_scheduler_honours_config_knobs():
    gpu = GPUConfig()
    assert isinstance(build_scheduler(gpu), FIFOScheduler)
    cf = build_scheduler(replace(gpu, dram_scheduler="critical_first",
                                 dram_write_buffer=7))
    assert isinstance(cf, CriticalFirstScheduler) and cf.capacity == 7
    banked = build_scheduler(replace(gpu, dram_scheduler="banked",
                                     dram_num_banks=8, dram_row_bytes=4096,
                                     dram_row_miss_penalty=5.0))
    assert isinstance(banked, BankedScheduler)
    assert (banked.num_banks, banked.row_bytes, banked.row_miss_penalty) \
        == (8, 4096, 5.0)


def test_build_scheduler_returns_fresh_instances():
    gpu = replace(GPUConfig(), dram_scheduler="banked")
    assert build_scheduler(gpu) is not build_scheduler(gpu)


def test_unknown_scheduler_is_an_error():
    with pytest.raises(ValueError, match="unknown DRAM scheduler"):
        build_scheduler(replace(GPUConfig(), dram_scheduler="psychic"))


def test_register_scheduler_rejects_silent_override():
    with pytest.raises(ValueError, match="already registered"):
        register_scheduler("fifo", lambda gpu: FIFOScheduler())


def test_register_scheduler_end_to_end():
    from repro.memory.sched import SCHEDULERS

    register_scheduler("test_fifo_twin", lambda gpu: FIFOScheduler())
    try:
        gpu = replace(GPUConfig(), dram_scheduler="test_fifo_twin")
        assert isinstance(build_scheduler(gpu), FIFOScheduler)
    finally:
        del SCHEDULERS["test_fifo_twin"]
