"""Sectored set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import SectoredCache


def make_cache(size=2048, ways=4):
    return SectoredCache(CacheConfig(size_bytes=size, ways=ways), name="t")


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        r = c.access(1, 0)
        assert not r.hit and r.needs_fetch
        r = c.access(1, 0)
        assert r.hit and not r.needs_fetch

    def test_sector_granularity(self):
        c = make_cache()
        c.access(1, 0)
        r = c.access(1, 1)  # same line, different sector
        assert not r.hit and r.needs_fetch  # sectored: separate fill

    def test_write_marks_dirty_and_writeback_on_evict(self):
        c = make_cache(size=512, ways=1)  # 4 lines, direct mapped
        c.access(0, 0, is_write=True, fetch_on_miss=False)
        r = c.access(4, 0)  # same set (4 sets), evicts line 0
        assert r.eviction is not None
        assert r.eviction.key == 0
        assert r.eviction.dirty_sectors == 1

    def test_clean_eviction_has_no_dirty_sectors(self):
        c = make_cache(size=512, ways=1)
        c.access(0, 0)
        r = c.access(4, 0)
        assert r.eviction is not None and r.eviction.dirty_sectors == 0

    def test_write_no_fetch_allocates_without_fill(self):
        c = make_cache()
        r = c.access(9, 2, is_write=True, fetch_on_miss=False)
        assert not r.hit and not r.needs_fetch
        assert c.access(9, 2).hit

    def test_write_rmw_fetches(self):
        c = make_cache()
        r = c.access(9, 2, is_write=True, fetch_on_miss=True)
        assert r.needs_fetch

    def test_lru_replacement(self):
        c = make_cache(size=1024, ways=2)  # 2 ways, 4 sets
        sets = c.num_sets
        a, b, d = 0, sets, 2 * sets  # all in set 0
        c.access(a, 0)
        c.access(b, 0)
        c.access(a, 0)  # touch a: b becomes LRU
        r = c.access(d, 0)
        assert r.eviction.key == b

    def test_sector_out_of_range(self):
        with pytest.raises(ValueError):
            make_cache().access(0, 7)

    def test_miss_rate(self):
        c = make_cache()
        c.access(0, 0)
        c.access(0, 0)
        assert c.miss_rate == pytest.approx(0.5)


class TestClean:
    def test_clean_drops_dirty_bit(self):
        c = make_cache()
        c.access(3, 1, is_write=True, fetch_on_miss=False)
        assert c.clean(3, 1)
        evicted = c.invalidate(3)
        assert evicted.dirty_sectors == 0

    def test_clean_missing_returns_false(self):
        assert not make_cache().clean(42, 0)

    def test_clean_non_dirty_returns_false(self):
        c = make_cache()
        c.access(3, 1)
        assert not c.clean(3, 1)


class TestInvalidateAndFlush:
    def test_invalidate_returns_obligation(self):
        c = make_cache()
        c.access(5, 0, is_write=True, fetch_on_miss=False)
        ev = c.invalidate(5)
        assert ev.dirty_sectors == 1
        assert not c.probe(5, 0)

    def test_invalidate_missing(self):
        assert make_cache().invalidate(5) is None

    def test_flush_returns_all_dirty(self):
        c = make_cache()
        for i in range(4):
            c.access(i, 0, is_write=True, fetch_on_miss=False)
        c.access(100, 0)  # clean line
        evs = c.flush()
        assert len(evs) == 4
        assert c.resident_lines() == 0


class TestInsertLine:
    def test_insert_line_populates_sectors(self):
        c = make_cache()
        c.insert_line(7, valid_sectors=3)
        assert c.probe(7, 0) and c.probe(7, 2)
        assert not c.probe(7, 3)

    def test_insert_dirty(self):
        c = make_cache()
        c.insert_line(7, valid_sectors=2, dirty=True)
        ev = c.invalidate(7)
        assert ev.dirty_sectors == 2


class TestStats:
    def test_counts(self):
        c = make_cache()
        c.access(0, 0)
        c.access(0, 0)
        c.access(1, 0)
        assert c.accesses == 3
        assert c.hits == 1
        assert c.sector_fills == 2

    def test_reset(self):
        c = make_cache()
        c.access(0, 0)
        c.reset_stats()
        assert c.accesses == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3), st.booleans()),
                max_size=200))
def test_property_matches_reference_lru_model(ops):
    """Hit/miss sequence matches a straightforward reference model."""
    cfg = CacheConfig(size_bytes=1024, ways=2)  # 8 lines, 4 sets
    cache = SectoredCache(cfg)
    # Reference: per-set list of [key, {valid sectors}] in LRU order.
    ref = {s: [] for s in range(cfg.num_sets)}

    for key, sector, is_write in ops:
        result = cache.access(key, sector, is_write=is_write,
                              fetch_on_miss=not is_write)
        s = key % cfg.num_sets
        lines = ref[s]
        entry = next((e for e in lines if e[0] == key), None)
        expected_hit = entry is not None and sector in entry[1]
        assert result.hit == expected_hit
        if entry is None:
            entry = [key, set()]
            if len(lines) >= cfg.ways:
                lines.pop(0)
            lines.append(entry)
        entry[1].add(sector)
        lines.remove(entry)
        lines.append(entry)
