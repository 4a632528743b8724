"""The per-partition security-metadata caches (MDC, Table VI).

Three 2 KB sectored caches — counters, MACs (block- and chunk-level
share one cache under disjoint key spaces) and BMT nodes — filter
metadata traffic before it reaches DRAM.  When the L2 victim-cache mode
is active (Section IV-D), lines evicted from an MDC are parked in the
partition's L2 and misses probe the L2 before going to DRAM.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common import constants
from repro.common.config import MDCConfig
from repro.memory.cache import Eviction, SectoredCache, stable_hash
from repro.memory.l2 import PartitionL2
from repro.obs.observer import NULL_OBSERVER

KIND_CTR = "ctr"
KIND_MAC = "mac"
KIND_BMT = "bmt"


class MetaTransfer:
    """One DRAM transfer caused by metadata handling (``__slots__``:
    one is allocated per MDC miss and per dirty metadata eviction)."""

    __slots__ = ("kind", "line_key", "size", "is_write")

    def __init__(self, kind: str, line_key: int, size: int,
                 is_write: bool) -> None:
        self.kind = kind  # ctr / mac / bmt
        self.line_key = line_key
        self.size = size
        self.is_write = is_write

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetaTransfer(kind={self.kind!r}, "
                f"line_key={self.line_key}, size={self.size}, "
                f"is_write={self.is_write})")


class DisplacedData:
    """A dirty data line displaced from the L2 by a victim insertion;
    the owner must route it through the secure write path."""

    __slots__ = ("line_key", "dirty_sectors")

    def __init__(self, line_key: int, dirty_sectors: int) -> None:
        self.line_key = line_key
        self.dirty_sectors = dirty_sectors


#: Shared empty result sequences: the overwhelmingly common MDC hit
#: causes no transfers and displaces nothing, so the hit fast path
#: returns these instead of allocating two lists per access.
_NO_TRANSFERS: Sequence[MetaTransfer] = ()
_NO_DISPLACED: Sequence[DisplacedData] = ()


class MetadataCaches:
    """Counter, MAC and BMT caches of one memory partition."""

    def __init__(self, mdc: MDCConfig, partition_id: int,
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

    def access(
        self,
        kind: str,
        line_key: int,
        sector: int,
        is_write: bool = False,
        fetch_on_miss: bool = True,
        sectors_on_miss: int = 1,
    ) -> Tuple[Sequence[MetaTransfer], Sequence[DisplacedData], bool]:
        """Access one metadata sector.

        ``sectors_on_miss`` models non-sectored metadata handling
        (Naive fetches the whole 128 B line on a miss; PSSM fetches one
        32 B sector).

        Returns (DRAM transfers, displaced dirty data lines, hit).
        The first transfer, when present and a read, is the demand
        fetch — the caller marks counter fetches as decrypt-critical.
        The sequences are shared immutable empties when nothing
        happened — callers must not mutate them.
        """
        cache = self._caches.get(kind)
        if cache is None:
            raise ValueError(f"unknown metadata kind: {kind}")

        result = cache.access(line_key, sector, is_write=is_write,
                              fetch_on_miss=fetch_on_miss)
        if self._observe:
            self.obs.mdc_access(self.now, self.partition_id, kind, result.hit)
        if result.hit:
            return _NO_TRANSFERS, _NO_DISPLACED, True

        transfers: List[MetaTransfer] = []
        displaced: List[DisplacedData] = []
        if result.needs_fetch:
            served_by_victim = False
            if self.victim_enabled() and self.l2 is not None:
                served_by_victim = self._victim_fetch(kind, line_key, sector, cache)
            if not served_by_victim:
                extra = 0
                if sectors_on_miss > 1:
                    # Whole-line fill: account the additional sectors.
                    extra = (sectors_on_miss - 1) * constants.SECTOR_SIZE
                    self._fill_line(cache, line_key)
                transfers.append(
                    MetaTransfer(kind, line_key, constants.SECTOR_SIZE + extra,
                                 is_write=False)
                )

        if result.eviction is not None:
            transfers_e, displaced_e = self._handle_eviction(kind, result.eviction)
            transfers.extend(transfers_e)
            displaced.extend(displaced_e)
        return transfers, displaced, False

    def access_path(
        self,
        kind: str,
        refs: Sequence[Tuple[int, int]],
        is_write: bool,
        sectors_on_miss: int,
        stop_at_hit: bool,
        transfers: List[MetaTransfer],
        displaced: List[DisplacedData],
    ) -> int:
        """One-pass probe of an ordered metadata path (a BMT walk).

        Accesses each ``(line_key, sector)`` ref in order, appending
        DRAM transfers / displaced dirty data to the caller's lists;
        when ``stop_at_hit`` the walk ends after the first hit (that
        ancestor is already verified on chip).  Statistics, LRU order,
        victim interactions and observer events are identical to the
        equivalent per-node :meth:`access` loop — the hit fast path
        below replicates :meth:`SectoredCache.access`'s resident-sector
        branch inline, misses fall back to the full path.  Returns the
        number of nodes probed.  Refs must carry in-range sectors
        (tree layout math guarantees it).
        """
        cache = self._caches.get(kind)
        if cache is None:
            raise ValueError(f"unknown metadata kind: {kind}")
        sets = cache._sets
        num_sets = cache.num_sets
        observe = self._observe
        touched = 0
        for key, sector in refs:
            touched += 1
            lines = sets[key % num_sets if type(key) is int
                         else cache.set_index(key)]
            line = lines.get(key)
            bit = 1 << sector
            if line is not None and line.valid_mask & bit:
                cache.accesses += 1
                cache.hits += 1
                if is_write:
                    line.dirty_mask |= bit
                if next(reversed(lines)) is not key:
                    del lines[key]
                    lines[key] = line
                if observe:
                    self.obs.mdc_access(self.now, self.partition_id, kind,
                                        True)
                if stop_at_hit:
                    break
                continue
            t, d, hit = self.access(kind, key, sector, is_write, True,
                                    sectors_on_miss)
            if t:
                transfers.extend(t)
            if d:
                displaced.extend(d)
            if hit and stop_at_hit:  # pragma: no cover - resident probe
                break  # already caught by the fast path above
        return touched

    def clean(self, kind: str, line_key: int, sector: int) -> bool:
        """Drop a resident sector's dirty bit (write traffic averted)."""
        return self._cache_for(kind).clean(line_key, sector)

    def flush(self) -> List[MetaTransfer]:
        """End-of-run flush of all dirty metadata (bypasses the victim
        path: at context teardown everything must reach DRAM)."""
        transfers = []
        for kind in (KIND_CTR, KIND_MAC, KIND_BMT):
            for ev in self._cache_for(kind).flush():
                if ev.dirty_sectors:
                    transfers.append(
                        MetaTransfer(kind, ev.key,
                                     ev.dirty_sectors * constants.SECTOR_SIZE,
                                     is_write=True)
                    )
        return transfers

    # -- Internals ------------------------------------------------------------

    def _fill_line(self, cache: SectoredCache, line_key: int) -> None:
        """Mark every sector of a just-allocated line resident (the
        non-sectored whole-line fill)."""
        cache.fill_all_sectors(line_key)

    def _victim_fetch(
        self, kind: str, line_key: int, sector: int, cache: SectoredCache
    ) -> bool:
        """Try to serve a miss from the L2 victim store."""
        bank = self.l2.bank_for(
            line_key if isinstance(line_key, int) else stable_hash(line_key)
        )
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

    def _handle_eviction(
        self, kind: str, eviction: Eviction
    ) -> Tuple[List[MetaTransfer], List[DisplacedData]]:
        transfers: List[MetaTransfer] = []
        displaced: List[DisplacedData] = []
        if self.victim_enabled() and self.l2 is not None and eviction.valid_sectors:
            key = eviction.key
            bank = self.l2.bank_for(
                key if isinstance(key, int) else stable_hash(key)
            )
            for disp in bank.victim_insert(
                (kind, key), eviction.valid_sectors, dirty=eviction.dirty_sectors > 0
            ):
                transfers_d, displaced_d = self._classify_displaced(disp)
                transfers.extend(transfers_d)
                displaced.extend(displaced_d)
            return transfers, displaced
        if eviction.dirty_sectors:
            transfers.append(
                MetaTransfer(kind, eviction.key,
                             eviction.dirty_sectors * constants.SECTOR_SIZE,
                             is_write=True)
            )
        return transfers, displaced

    def _classify_displaced(
        self, disp: Eviction
    ) -> Tuple[List[MetaTransfer], List[DisplacedData]]:
        """A line displaced from the L2 by a victim insertion is either
        a dirty victim metadata line (write it to DRAM) or a dirty data
        line (hand it back for the secure write path)."""
        key = disp.key
        if isinstance(key, tuple) and len(key) == 2 and key[0] == "v":
            kind, line_key = key[1]
            return (
                [MetaTransfer(kind, line_key,
                              disp.dirty_sectors * constants.SECTOR_SIZE,
                              is_write=True)],
                [],
            )
        return [], [DisplacedData(line_key=key, dirty_sectors=disp.dirty_sectors)]
