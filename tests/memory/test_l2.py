"""L2 banks: data path, sampling, victim-cache operations."""

import pytest

from repro.common.config import CacheConfig, GPUConfig
from repro.memory.l2 import L2Bank, PartitionL2, SAMPLE_STRIDE


def make_bank(size=8 * 1024):
    return L2Bank(CacheConfig(size_bytes=size, ways=4, mshr_entries=8), "b")


class TestDataPath:
    def test_miss_then_hit(self):
        bank = make_bank()
        r = bank.access_data(1, 0, False, now=0)
        assert not r.hit and r.needs_fetch
        bank.mshr.allocate_burst(1, (0,), 100, 0)
        r = bank.access_data(1, 0, False, now=200)
        assert r.hit

    def test_hit_on_inflight_fill_merges(self):
        bank = make_bank()
        bank.access_data(1, 0, False, now=0)
        bank.mshr.allocate_burst(1, (0,), 100, 0)
        r = bank.access_data(1, 0, False, now=10)
        assert r.hit
        assert r.merged_done == 100  # completes when the fill returns

    def test_dirty_eviction_surfaces_writeback(self):
        cfg = CacheConfig(size_bytes=512, ways=1, mshr_entries=8)
        bank = L2Bank(cfg, "b")
        bank.cache.access(0, 0, is_write=True, fetch_on_miss=False)
        r = bank.access_data(cfg.num_sets, 0, False, now=0)  # same set
        assert len(r.writebacks) == 1
        assert r.writebacks[0].key == 0


class TestSampling:
    def test_sampled_sets_tracked(self):
        bank = make_bank()
        # Find a key mapping to a sampled set (set index % STRIDE == 0).
        key = next(k for k in range(1000)
                   if bank.cache.set_index(k) % SAMPLE_STRIDE == 0)
        bank.access_data(key, 0, False, now=0)
        assert bank.sampled_accesses == 1
        assert bank.sampled_misses == 1
        bank.access_data(key, 0, False, now=0)
        assert bank.sampled_miss_rate == pytest.approx(0.5)

    def test_unsampled_sets_ignored(self):
        bank = make_bank()
        key = next(k for k in range(1000)
                   if bank.cache.set_index(k) % SAMPLE_STRIDE != 0)
        bank.access_data(key, 0, False, now=0)
        assert bank.sampled_accesses == 0

    def test_reset_sampling(self):
        bank = make_bank()
        key = next(k for k in range(1000)
                   if bank.cache.set_index(k) % SAMPLE_STRIDE == 0)
        bank.access_data(key, 0, False, now=0)
        bank.reset_sampling()
        assert bank.sampled_accesses == 0
        assert bank.sampled_miss_rate == 0.0


def unsampled_victim_key(bank, kind="mac"):
    """A metadata key whose victim line lands outside the sampled
    (data-only) sets; tuple hashing varies per process, so search."""
    for i in range(10_000):
        if bank.cache.set_index(("v", (kind, i))) % SAMPLE_STRIDE != 0:
            return i
    raise AssertionError("no unsampled key found")


class TestVictimPath:
    def test_insert_probe_remove(self):
        bank = make_bank()
        key = unsampled_victim_key(bank)
        bank.victim_insert(("mac", key), valid_sectors=4, dirty=False)
        assert bank.victim_probe(("mac", key), 0)
        assert bank.victim_hits == 1
        ev = bank.victim_remove(("mac", key))
        assert ev is not None
        assert not bank.victim_probe(("mac", key), 0)

    def test_dirty_victim_keeps_dirtiness(self):
        bank = make_bank()
        key = unsampled_victim_key(bank, "ctr")
        bank.victim_insert(("ctr", key), valid_sectors=2, dirty=True)
        ev = bank.victim_remove(("ctr", key))
        assert ev.dirty_sectors == 2

    def test_victim_never_lands_in_sampled_sets(self):
        bank = make_bank()
        for i in range(200):
            bank.victim_insert(("mac", i), valid_sectors=1, dirty=False)
        for lines_idx, lines in enumerate(bank.cache._sets):
            if lines_idx % SAMPLE_STRIDE == 0:
                assert not lines, "sampled set polluted by victim lines"

    def test_victim_probe_miss(self):
        bank = make_bank()
        assert not bank.victim_probe(("mac", 99), 0)
        assert bank.victim_hits == 0


class TestPartitionL2:
    def test_bank_selection_stable(self):
        part = PartitionL2(GPUConfig(), 0)
        assert part.bank_for(10) is part.bank_for(10)
        assert len(part.banks) == 2

    def test_aggregated_sampling(self):
        part = PartitionL2(GPUConfig(), 0)
        assert part.sampled_miss_rate == 0.0

    def test_flush_collects_dirty(self):
        part = PartitionL2(GPUConfig(), 0)
        part.bank_for(0).cache.access(0, 0, is_write=True, fetch_on_miss=False)
        evs = part.flush()
        assert len(evs) == 1
