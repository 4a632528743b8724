"""Metadata caches (MDC): traffic generation and the victim path."""

import random

import pytest

from repro.common.config import GPUConfig, MDCConfig
from repro.memory.cache import SectoredCache
from repro.memory.l2 import PartitionL2
from repro.metadata.caches import (
    KIND_BMT,
    KIND_CTR,
    KIND_MAC,
    MetadataCaches,
)
from tests.conftest import RecordingPlace


@pytest.fixture
def placed():
    return RecordingPlace()


@pytest.fixture
def mdc(placed):
    return MetadataCaches(MDCConfig(), partition_id=0, place=placed)


def _state(cache):
    """Statistics plus every set's lines (LRU to MRU) and masks."""
    return (cache.accesses, cache.hits, cache.sector_fills, cache.writebacks,
            [[(key, line.valid_mask, line.dirty_mask)
              for key, line in lines.items()] for lines in cache._sets])


def _keys_in_set_zero(cache, count):
    keys = []
    k = 0
    while len(keys) < count:
        if cache.set_index(k) == 0:
            keys.append(k)
        k += 1
    return keys


class TestAccess:
    def test_miss_generates_one_sector_fetch(self, mdc, placed):
        hit = mdc.access(KIND_CTR, 0, 0, False, True)
        assert not hit
        assert len(placed) == 1
        assert placed[0].kind == KIND_CTR
        assert placed[0].size == 32
        assert not placed[0].is_write

    def test_hit_generates_no_traffic(self, mdc, placed):
        mdc.access(KIND_CTR, 0, 0, False, True)
        del placed[:]
        hit = mdc.access(KIND_CTR, 0, 0, False, True)
        assert hit and not placed

    def test_unsectored_fill_fetches_whole_line(self, placed):
        mdc = MetadataCaches(MDCConfig(), partition_id=0, place=placed,
                             sectors_on_miss=4)
        mdc.access(KIND_MAC, 0, 0, False, True)
        assert placed[0].size == 128
        # All four sectors now resident.
        for s in range(4):
            assert mdc.access(KIND_MAC, 0, s, False, True)

    def test_write_no_fetch(self, mdc, placed):
        hit = mdc.access(KIND_MAC, 1, 0, True, False)
        assert not hit and not placed  # produced in place

    def test_dirty_eviction_writes_back(self, mdc, placed):
        # Fill one set (4 ways) with dirty lines, then overflow it.
        keys = _keys_in_set_zero(mdc.counter, 5)
        for key in keys[:4]:
            mdc.access(KIND_CTR, key, 0, True, False)
        mdc.access(KIND_CTR, keys[4], 0, False, True)
        writes = [t for t in placed if t.is_write]
        assert len(writes) == 1
        assert writes[0].size == 32

    def test_kinds_use_separate_caches(self, mdc):
        mdc.access(KIND_CTR, 0, 0, False, True)
        assert not mdc.access(KIND_MAC, 0, 0, False, True)

    def test_unknown_kind_rejected(self, mdc):
        with pytest.raises(ValueError):
            mdc.access("bogus", 0, 0, False, True)

    def test_clean(self, mdc):
        mdc.access(KIND_MAC, 2, 1, True, False)
        assert mdc.clean(KIND_MAC, 2, 1)
        assert not mdc.clean(KIND_MAC, 2, 1)

    def test_only_a_counter_read_fetch_is_critical(self, mdc, placed):
        mdc.access(KIND_CTR, 0, 0, False, True)
        mdc.access(KIND_CTR, 1, 0, True, True)
        mdc.access(KIND_MAC, 0, 0, False, True)
        mdc.access(KIND_BMT, 0, 0, False, True)
        assert [t.critical for t in placed] == [True, False, False, False]

    def test_fetch_precedes_eviction_and_both_carry_the_booking(
            self, mdc, placed):
        keys = _keys_in_set_zero(mdc.mac, 5)
        for key in keys[:4]:
            mdc.access(KIND_MAC, key, 0, True, False)
        mdc.access(KIND_MAC, keys[4], 0, False, True, booked="mispred")
        assert [(t.line_key, t.is_write, t.booked) for t in placed] == [
            (keys[4], False, "mispred"), (keys[0], True, "mispred")]


    def test_bookkeeping_matches_sectored_cache(self, mdc, placed):
        """access carries SectoredCache.access's bookkeeping inline: a
        seeded stream leaves both caches in the same state, and every
        miss places the fetch and write-back SectoredCache reports."""
        rng = random.Random(5)
        reference = SectoredCache(MDCConfig().counter)
        for _ in range(5000):
            key, sector = rng.randrange(48), rng.randrange(4)
            is_write, fetch = rng.random() < 0.4, rng.random() < 0.7
            del placed[:]
            hit = mdc.access(KIND_CTR, key, sector, is_write, fetch)
            res = reference.access(key, sector, is_write, fetch)
            assert hit == res.hit
            expected = [(key, 32, False)] if res.needs_fetch else []
            if res.eviction is not None and res.eviction.dirty_sectors:
                expected.append((res.eviction.key,
                                 32 * res.eviction.dirty_sectors, True))
            assert [(t.line_key, t.size, t.is_write)
                    for t in placed] == expected
        assert _state(mdc.counter) == _state(reference)


class TestFlush:
    def test_flush_emits_dirty_only(self, mdc):
        mdc.access(KIND_CTR, 0, 0, True, False)
        mdc.access(KIND_MAC, 0, 0, False, True)  # clean
        assert mdc.flush() == [(KIND_CTR, 0, 32)]


class TestVictimPath:
    @pytest.fixture
    def victim_mdc(self, mdc):
        mdc.l2 = PartitionL2(GPUConfig(), 0)
        mdc.victim_enabled = lambda: True
        return mdc

    def test_eviction_parks_in_l2_or_writes_back(self, victim_mdc, placed):
        keys = _keys_in_set_zero(victim_mdc.mac, 5)
        for key in keys[:4]:
            victim_mdc.access(KIND_MAC, key, 0, True, False)
        victim_mdc.access(KIND_MAC, keys[4], 0, False, True)
        inserted = sum(b.victim_insertions for b in victim_mdc.l2.banks)
        wrote_back = any(t.is_write for t in placed)
        # The dirty victim either parked in the L2 or (if its set is a
        # sampled data-only set) became a DRAM write - never dropped.
        assert inserted >= 1 or wrote_back

    def test_miss_served_from_victim(self, victim_mdc, placed):
        from repro.memory.l2 import SAMPLE_STRIDE
        key = next(
            k for k in range(10_000)
            if victim_mdc.l2.bank_for(k).cache.set_index(("v", (KIND_CTR, k)))
            % SAMPLE_STRIDE != 0
        )
        bank = victim_mdc.l2.bank_for(key)
        bank.victim_insert((KIND_CTR, key), valid_sectors=4, dirty=False)
        victim_mdc.access(KIND_CTR, key, 0, False, True)
        assert not placed  # no DRAM fetch: the L2 had it
        # And the line moved out of the L2.
        assert not bank.victim_probe((KIND_CTR, key), 0)

    def test_victim_disabled_goes_to_dram(self, mdc, placed):
        mdc.l2 = PartitionL2(GPUConfig(), 0)
        mdc.victim_enabled = lambda: False
        mdc.access(KIND_CTR, 3, 0, False, True)
        assert len(placed) == 1

    def test_parking_hands_displaced_dirty_data_back(self, victim_mdc,
                                                     placed):
        from repro.memory.l2 import SAMPLE_STRIDE
        keys = [k for k in _keys_in_set_zero(victim_mdc.mac, 40)
                if victim_mdc.l2.bank_for(k).cache.set_index(
                    ("v", (KIND_MAC, k))) % SAMPLE_STRIDE != 0][:5]
        # The L2 set the first key parks in is full of dirty data.
        cache = victim_mdc.l2.bank_for(keys[0]).cache
        target = cache.set_index(("v", (KIND_MAC, keys[0])))
        data = [target + i * cache.num_sets for i in range(cache.ways)]
        for key in data:
            cache.insert_line(key, 4, dirty=True)
        for key in keys[:4]:
            victim_mdc.access(KIND_MAC, key, 0, True, False)
        victim_mdc.access(KIND_MAC, keys[4], 0, False, True)
        assert [(d.line_key, d.dirty_sectors)
                for d in victim_mdc.displaced] == [(data[0], 4)]
        # The parked line was dirty but left no DRAM write: only the
        # demand fetch reached the channel.
        assert [t.is_write for t in placed] == [False]
