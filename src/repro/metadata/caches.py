"""The per-partition security-metadata caches (MDC, Table VI).

Three 2 KB sectored caches — counters, MACs (block- and chunk-level
share one cache under disjoint key spaces) and BMT nodes — filter
metadata traffic before it reaches DRAM.  When the L2 victim-cache mode
is active (Section IV-D), lines evicted from an MDC are parked in the
partition's L2 and misses probe the L2 before going to DRAM.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.common import constants
from repro.common.config import MDCConfig
from repro.memory.cache import SectoredCache, _Line, _popcount
from repro.memory.l2 import PartitionL2
from repro.obs.observer import NULL_OBSERVER

KIND_CTR = "ctr"
KIND_MAC = "mac"
KIND_BMT = "bmt"


class DisplacedData:
    """A dirty data line displaced from the L2 by a victim insertion;
    the owner must route it through the secure write path."""

    __slots__ = ("line_key", "dirty_sectors")

    def __init__(self, line_key: int, dirty_sectors: int) -> None:
        self.line_key = line_key
        self.dirty_sectors = dirty_sectors


class MetadataCaches:
    """Counter, MAC and BMT caches of one memory partition.

    ``place(kind, line_key, size, is_write, critical, booked)`` puts one
    metadata transfer on its DRAM channel; :meth:`access` calls it for
    every transfer a miss causes, the moment it is decided.
    ``sectors_on_miss`` models non-sectored metadata handling (Naive
    fetches the whole 128 B line on a miss; PSSM fetches one 32 B
    sector).
    """

    def __init__(self, mdc: MDCConfig, partition_id: int,
                 place: Callable[..., float], sectors_on_miss: int = 1,
                 observer=None) -> None:
        self.partition_id = partition_id
        self.counter = SectoredCache(mdc.counter, name=f"ctr-p{partition_id}")
        self.mac = SectoredCache(mdc.mac, name=f"mac-p{partition_id}")
        self.bmt = SectoredCache(mdc.bmt, name=f"bmt-p{partition_id}")
        self._caches = {
            KIND_CTR: self.counter,
            KIND_MAC: self.mac,
            KIND_BMT: self.bmt,
        }
        self._place = place
        self._sectors_on_miss = sectors_on_miss
        #: Dirty data lines that victim insertions displaced from the
        #: L2; the owner writes them back and clears the list.
        self.displaced: List[DisplacedData] = []
        # Victim-cache plumbing (set by the partition when SHM_vL2).
        self.l2: Optional[PartitionL2] = None
        self.victim_enabled = lambda: False
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        #: Current access cycle, maintained by the owning MEE when
        #: observation is on (the MDC interface itself is cycle-free).
        self.now = 0.0

    def _cache_for(self, kind: str) -> SectoredCache:
        cache = self._caches.get(kind)
        if cache is None:
            raise ValueError(f"unknown metadata kind: {kind}")
        return cache

    def access(self, kind: str, line_key: int, sector: int, is_write: bool,
               fetch: bool, booked: Optional[str] = None) -> bool:
        """Access one metadata sector; returns True on a hit.

        A miss allocates the sector (``fetch=False`` models
        produce-in-place writes: the sector becomes valid without
        reading the old value), then places its transfers in order: the
        demand fetch — unless the L2 victim store serves it — and the
        evicted line's write-back, or the write-backs its parking in
        the L2 displaces.  Only a counter read's fetch is
        decrypt-critical; ``booked`` re-books every transfer of the
        access under another traffic class (misprediction re-fetches).
        """
        cache = self._caches.get(kind)
        if cache is None:
            raise ValueError(f"unknown metadata kind: {kind}")
        # SectoredCache.access, carried inline: every metadata access
        # of every run comes through here.
        cache.accesses += 1
        lines = cache._sets[line_key % cache.num_sets]
        line = lines.get(line_key)
        bit = 1 << sector
        if line is not None and line.valid_mask & bit:
            cache.hits += 1
            if is_write:
                line.dirty_mask |= bit
            if next(reversed(lines)) is not line_key:
                del lines[line_key]
                lines[line_key] = line
            if self._observe:
                self.obs.mdc_access(self.now, self.partition_id, kind, True)
            return True

        evicted = None
        if line is None:
            if len(lines) >= cache.ways:
                evicted = lines.pop(next(iter(lines)))  # LRU = oldest
                evicted_dirty = _popcount(evicted.dirty_mask)
                if evicted_dirty:
                    cache.writebacks += evicted_dirty
            line = _Line(line_key)
            lines[line_key] = line
        if fetch:
            cache.sector_fills += 1
        line.valid_mask |= bit
        if is_write:
            line.dirty_mask |= bit
        if next(reversed(lines)) is not line_key:
            del lines[line_key]
            lines[line_key] = line
        if self._observe:
            self.obs.mdc_access(self.now, self.partition_id, kind, False)

        sector_size = constants.SECTOR_SIZE
        if fetch and not (self.l2 is not None and self.victim_enabled()
                          and self._victim_fetch(kind, line_key, sector,
                                                 cache)):
            size = sector_size
            if self._sectors_on_miss > 1:
                size *= self._sectors_on_miss
                cache.fill_all_sectors(line_key)
            self._place(kind, line_key, size, False,
                        kind == KIND_CTR and not is_write, booked)
        if evicted is not None:
            if (self.l2 is not None and self.victim_enabled()
                    and evicted.valid_mask):
                self._park(kind, evicted, evicted_dirty, booked)
            elif evicted_dirty:
                self._place(kind, evicted.key, evicted_dirty * sector_size,
                            True, False, booked)
        return False

    def clean(self, kind: str, line_key: int, sector: int) -> bool:
        """Drop a resident sector's dirty bit (write traffic averted)."""
        return self._cache_for(kind).clean(line_key, sector)

    def flush(self) -> List[Tuple[str, int, int]]:
        """End-of-run flush of all dirty metadata, as ``(kind, line_key,
        bytes)`` write-backs (bypasses the victim path: at context
        teardown everything must reach DRAM)."""
        writes = []
        for kind in (KIND_CTR, KIND_MAC, KIND_BMT):
            for ev in self._cache_for(kind).flush():
                if ev.dirty_sectors:
                    writes.append((kind, ev.key,
                                   ev.dirty_sectors * constants.SECTOR_SIZE))
        return writes

    # -- Victim cache -----------------------------------------------------------

    def _victim_fetch(
        self, kind: str, line_key: int, sector: int, cache: SectoredCache
    ) -> bool:
        """Try to serve a miss from the L2 victim store."""
        bank = self.l2.bank_for(line_key)
        hit = bank.victim_probe((kind, line_key), sector)
        if self._observe:
            self.obs.victim_probe(self.now, self.partition_id, hit)
        if not hit:
            return False
        evicted = bank.victim_remove((kind, line_key))
        if evicted is not None and evicted.dirty_sectors:
            # Dirtiness travels back into the MDC with the line.
            cache.access(line_key, sector, is_write=True, fetch_on_miss=False)
        return True

    def _park(self, kind: str, evicted: _Line, dirty: int,
              booked: Optional[str]) -> None:
        """Park an evicted line in the L2.  A line the insertion
        displaces is either a dirty victim metadata line (written to
        DRAM as its own kind) or a dirty data line (handed back on
        :attr:`displaced` for the secure write path)."""
        key = evicted.key
        for disp in self.l2.bank_for(key).victim_insert(
                (kind, key), _popcount(evicted.valid_mask), dirty=dirty > 0):
            dkey = disp.key
            if isinstance(dkey, tuple) and len(dkey) == 2 and dkey[0] == "v":
                dkind, dline = dkey[1]
                self._place(dkind, dline,
                            disp.dirty_sectors * constants.SECTOR_SIZE,
                            True, False, booked)
            else:
                self.displaced.append(DisplacedData(dkey, disp.dirty_sectors))
