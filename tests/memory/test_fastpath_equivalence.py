"""Property-style equivalence of the host-performance fast paths.

The host-performance fast paths (bulk sector ops, memoized address
mapping, one MSHR probe per line) promise *bit-identical simulated results*: every
fast path must agree — statistics, masks, LRU order, evictions — with
the straightforward per-sector / recomputed reference it replaced.
These tests drive randomized traces through both and compare complete
state after every step, so a divergence pinpoints the first operation
that broke the contract rather than a golden-oracle diff 160 cells
later.
"""

from __future__ import annotations

import random

import pytest

from repro.common.address import AddressMapper
from repro.common.config import CacheConfig
from repro.memory.cache import SectoredCache
from repro.memory.l2 import L2Bank
from repro.memory.mshr import MASK_SECTORS


# ---------------------------------------------------------------------------
# References: the sequential per-sector semantics the bulk ops replaced
# ---------------------------------------------------------------------------

def _reference_access_range(cache, key, first, last, is_write, fetch_on_miss):
    """Per-sector loop with the exact pre-optimisation semantics."""
    hit_mask = 0
    fetch_mask = 0
    eviction = None
    for sector in range(first, last):
        result = cache.access(key, sector, is_write=is_write,
                              fetch_on_miss=fetch_on_miss)
        if result.hit:
            hit_mask |= 1 << sector
        if result.needs_fetch:
            fetch_mask |= 1 << sector
        if result.eviction is not None:
            # All sectors share one line: only its allocation (the
            # first access of the loop) can displace a victim.
            assert eviction is None
            eviction = result.eviction
    return hit_mask, fetch_mask, eviction


def _cache_state(cache):
    """Full observable state: stats + per-set (key, masks) in LRU order."""
    return (
        cache.accesses, cache.hits, cache.sector_fills, cache.writebacks,
        [[(key, line.valid_mask, line.dirty_mask)
          for key, line in lines.items()]
         for lines in cache._sets],
    )


def _mshr_state(mshr):
    return (mshr.occupancy, mshr.merges, mshr.stall_events,
            {line: dict(record) for line, record in mshr.inflight.items()},
            {line: dict(counts) for line, counts in mshr._merged.items()})


def _bank_state(bank):
    return (bank.sampled_accesses, bank.sampled_misses,
            _mshr_state(bank.mshr), _cache_state(bank.cache))


# ---------------------------------------------------------------------------
# SectoredCache.access_range / fill_all_sectors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_access_range_matches_sequential_reference(seed):
    rng = random.Random(seed)
    cfg = CacheConfig(size_bytes=2048, ways=2)
    fast = SectoredCache(cfg, name="fast")
    ref = SectoredCache(cfg, name="ref")
    spb = cfg.sectors_per_block
    for _ in range(400):
        key = rng.randrange(64)
        first = rng.randrange(spb)
        last = rng.randrange(first + 1, spb + 1)
        is_write = rng.random() < 0.3
        fetch = rng.random() < 0.8
        got = fast.access_range(key, first, last, is_write=is_write,
                                fetch_on_miss=fetch)
        want = _reference_access_range(ref, key, first, last,
                                       is_write, fetch)
        assert got == want
        assert _cache_state(fast) == _cache_state(ref)


@pytest.mark.parametrize("seed", range(3))
def test_fill_all_sectors_matches_sequential_reference(seed):
    rng = random.Random(seed)
    cfg = CacheConfig(size_bytes=2048, ways=2)
    fast = SectoredCache(cfg, name="fast")
    ref = SectoredCache(cfg, name="ref")
    spb = cfg.sectors_per_block
    for _ in range(200):
        key = rng.randrange(32)
        # The demand access that precedes every whole-line fill: it
        # allocates the line (fill_all_sectors requires residency) and
        # leaves a random subset of sectors already valid.
        sector = rng.randrange(spb)
        fast.access(key, sector)
        ref.access(key, sector)
        fast.fill_all_sectors(key)
        for s in range(spb):
            ref.access(key, s)
        assert _cache_state(fast) == _cache_state(ref)


def test_access_range_empty_and_out_of_range():
    cache = SectoredCache(CacheConfig(size_bytes=2048, ways=2))
    assert cache.access_range(1, 2, 2) == (0, 0, None)
    assert cache.accesses == 0  # an empty range touches nothing
    with pytest.raises(ValueError):
        cache.access_range(1, 0, cache.sectors_per_block + 1)


# ---------------------------------------------------------------------------
# L2Bank.access_data_range (sampling counters + MSHR merging included)
# ---------------------------------------------------------------------------

def _reference_l2_range(bank, line_key, first, last, now):
    merged_done = 0.0
    fetch_mask = 0
    eviction = None
    for sector in range(first, last):
        result = bank.access_data(line_key, sector, False, now)
        if result.merged_done is not None and result.merged_done > merged_done:
            merged_done = result.merged_done
        if result.needs_fetch:
            fetch_mask |= 1 << sector
        if result.writebacks:
            assert eviction is None
            eviction = result.writebacks[0]
    return merged_done, fetch_mask, eviction


@pytest.mark.parametrize("seed", range(3))
def test_l2_access_data_range_matches_sequential_reference(seed):
    rng = random.Random(seed)
    cfg = CacheConfig(size_bytes=4096, ways=2, mshr_entries=8, mshr_merge=4)
    fast = L2Bank(cfg, name="fast")
    ref = L2Bank(cfg, name="ref")
    spb = cfg.sectors_per_block
    now = 0.0
    for _ in range(300):
        now += rng.randrange(1, 50)
        # Occasional writes dirty lines on both banks so evictions
        # carry real write-back obligations.
        if rng.random() < 0.3:
            wkey = rng.randrange(128)
            wsector = rng.randrange(spb)
            fast.access_data(wkey, wsector, True, now)
            ref.access_data(wkey, wsector, True, now)
        key = rng.randrange(128)
        first = rng.randrange(spb)
        last = rng.randrange(first + 1, spb + 1)
        merged, fetch_mask, eviction = fast.access_data_range(
            key, first, last, now)
        dirty_eviction = (eviction if eviction is not None
                          and eviction.dirty_sectors else None)
        assert (merged, fetch_mask, dirty_eviction) \
            == _reference_l2_range(ref, key, first, last, now)
        # Register the fetched sectors as in-flight fills on both
        # banks, so later iterations exercise the MSHR-merge path.
        if fetch_mask:
            done = now + rng.randrange(50, 200)
            fast.mshr.allocate_burst(key, MASK_SECTORS[fetch_mask], done, now)
            ref.mshr.allocate_burst(key, MASK_SECTORS[fetch_mask], done, now)
        assert _bank_state(fast) == _bank_state(ref)


# ---------------------------------------------------------------------------
# AddressMapper.to_local memoization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_partitions,interleave", [(12, 256), (6, 512),
                                                       (1, 256)])
def test_to_local_memo_matches_divmod_reference(num_partitions, interleave):
    rng = random.Random(num_partitions * interleave)
    mapper = AddressMapper(num_partitions=num_partitions,
                           interleave_bytes=interleave)
    addresses = [rng.randrange(1 << 34) for _ in range(1000)]
    # Trace replay revisits addresses constantly; repeats exercise the
    # memoized path against the same expectations as the first visit.
    addresses += rng.sample(addresses, 500)
    for physical in addresses:
        local = mapper.to_local(physical)
        chunk, within = divmod(physical, interleave)
        assert local.partition == chunk % num_partitions
        assert local.offset == (chunk // num_partitions) * interleave + within
        assert mapper.partition_of(physical) == local.partition
        assert mapper.to_physical(local) == physical
        assert mapper.to_local(physical) == local  # memo is stable


def test_to_local_still_rejects_negative_addresses():
    mapper = AddressMapper()
    with pytest.raises(ValueError):
        mapper.to_local(-1)
    mapper.to_local(4096)  # populating the memo changes nothing
    with pytest.raises(ValueError):
        mapper.to_local(-1)
