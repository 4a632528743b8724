"""L2 cache banks with MSHR merging, miss-rate sampling and a
victim-cache mode for security metadata (Section IV-D).

Each memory partition has two L2 banks.  A small fraction of sets is
*sampled*: those sets never receive victim metadata lines, so their
miss rate reflects pure data behaviour — the signal used to decide
when to enable the victim-cache mode (the set-sampling idea of
utility-based cache partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from repro.common.config import CacheConfig, GPUConfig
from repro.memory.cache import Eviction, SectoredCache
from repro.memory.mshr import MSHRFile
from repro.obs.observer import NULL_OBSERVER

#: One in SAMPLE_STRIDE sets is reserved for data-only sampling.
SAMPLE_STRIDE = 16


@dataclass
class L2AccessResult:
    """Outcome of a data access to the L2."""

    hit: bool
    #: Completion time of an in-flight fill this access merged into
    #: (None for hits and for fresh misses).
    merged_done: Optional[float]
    #: Earliest cycle a fresh miss may issue to DRAM (MSHR stall).
    issue_at: float
    #: Dirty data write-back obligations (key, dirty sector count).
    writebacks: List[Eviction]
    needs_fetch: bool


class L2Bank:
    """One sectored L2 bank plus its MSHR file."""

    def __init__(self, config: CacheConfig, name: str, observer=None) -> None:
        self.cache = SectoredCache(config, name=name)
        self.mshr = MSHRFile(config.mshr_entries, config.mshr_merge)
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        # Sampled (data-only) miss statistics.
        self.sampled_accesses = 0
        self.sampled_misses = 0
        self.victim_hits = 0
        self.victim_insertions = 0

    # -- Data path ----------------------------------------------------------------

    def access_data(
        self, line_key: int, sector: int, is_write: bool, now: float
    ) -> L2AccessResult:
        set_idx = self.cache.set_index(line_key)
        sampled = set_idx % SAMPLE_STRIDE == 0
        if sampled:
            self.sampled_accesses += 1

        sector_key = (line_key, sector)
        result = self.cache.access(line_key, sector, is_write=is_write)
        if result.hit:
            # The sector may still be in flight (the cache marks it
            # resident when the fill is *issued*); a hit then completes
            # when the outstanding fill returns.
            merged = self.mshr.lookup(sector_key, now)
            return L2AccessResult(
                hit=True,
                merged_done=merged,
                issue_at=now,
                writebacks=self._writebacks(result.eviction),
                needs_fetch=False,
            )

        if sampled:
            self.sampled_misses += 1
        merged = self.mshr.lookup(sector_key, now)
        if merged is not None:
            return L2AccessResult(
                hit=False,
                merged_done=merged,
                issue_at=now,
                writebacks=self._writebacks(result.eviction),
                needs_fetch=False,
            )
        return L2AccessResult(
            hit=False,
            merged_done=None,
            issue_at=now,
            writebacks=self._writebacks(result.eviction),
            needs_fetch=True,
        )

    def access_data_range(
        self, line_key: int, first: int, last: int, now: float
    ) -> "Tuple[float, Optional[List[int]], Optional[Eviction]]":
        """Bulk form of per-sector :meth:`access_data` calls for one
        read request's sectors ``[first, last)``.

        Produces the same cache statistics, sampling counters, MSHR
        merges and eviction as the equivalent ascending per-sector
        loop, without allocating an :class:`L2AccessResult` (or any
        list) per sector.  Returns ``(merged_done, fetch_sectors,
        eviction)``: the latest in-flight fill this access merged into
        (0.0 when none), the sectors that need a fresh DRAM fetch
        (None when none), and the displaced victim line (None when the
        line was resident or the set had room).
        """
        cache = self.cache
        n = last - first
        sampled = (line_key % cache.num_sets) % SAMPLE_STRIDE == 0
        if sampled:
            self.sampled_accesses += n
        hit_mask, _, eviction = cache.access_range(line_key, first, last)
        if sampled:
            all_mask = ((1 << n) - 1) << first
            missed = all_mask & ~hit_mask
            self.sampled_misses += bin(missed).count("1")

        merged_done = 0.0
        fetch_sectors: Optional[List[int]] = None
        outstanding = self.mshr._outstanding
        if outstanding:
            mshr = self.mshr
            for sector in range(first, last):
                sector_key = (line_key, sector)
                merged = (mshr.lookup(sector_key, now)
                          if sector_key in outstanding else None)
                if merged is not None:
                    if merged > merged_done:
                        merged_done = merged
                elif not hit_mask & (1 << sector):
                    if fetch_sectors is None:
                        fetch_sectors = [sector]
                    else:
                        fetch_sectors.append(sector)
        else:
            for sector in range(first, last):
                if not hit_mask & (1 << sector):
                    if fetch_sectors is None:
                        fetch_sectors = [sector]
                    else:
                        fetch_sectors.append(sector)
        return merged_done, fetch_sectors, eviction

    def register_fill(self, line_key: int, sector: int, done: float, now: float) -> float:
        """Record an issued fill in the MSHR file; returns the (possibly
        stalled) issue time."""
        return self.mshr.allocate((line_key, sector), done, now)

    # -- Victim-cache path -----------------------------------------------------------

    def victim_probe(self, key: Hashable, sector: int) -> bool:
        """Does the bank hold this metadata sector as a victim line?"""
        hit = self.cache.probe(("v", key), sector)
        if hit:
            self.victim_hits += 1
        return hit

    def victim_insert(self, key: Hashable, valid_sectors: int, dirty: bool) -> List[Eviction]:
        """Insert an evicted metadata line as a victim line.

        Sampled sets are excluded so the data miss-rate signal stays
        clean; a line that would land in one is not parked — if dirty
        it becomes an immediate write-back obligation instead.  Returns
        any write-back obligations from displaced lines (which may
        themselves be dirty victim metadata or dirty data).
        """
        vkey = ("v", key)
        if self.cache.set_index(vkey) % SAMPLE_STRIDE == 0:
            if dirty:
                return [Eviction(key=vkey, dirty_sectors=valid_sectors,
                                 valid_sectors=valid_sectors)]
            return []
        eviction = self.cache.insert_line(vkey, valid_sectors, dirty=dirty)
        self.victim_insertions += 1
        if self._observe:
            self.obs.count("l2.victim_insertions")
        return self._writebacks(eviction)

    def victim_remove(self, key: Hashable) -> Optional[Eviction]:
        """Remove a victim line after it moved back into an MDC."""
        return self.cache.invalidate(("v", key))

    # -- Sampling ----------------------------------------------------------------------

    @property
    def sampled_miss_rate(self) -> float:
        if self.sampled_accesses == 0:
            return 0.0
        return self.sampled_misses / self.sampled_accesses

    def reset_sampling(self) -> None:
        self.sampled_accesses = 0
        self.sampled_misses = 0

    def flush(self) -> List[Eviction]:
        return self.cache.flush()

    @staticmethod
    def _writebacks(eviction: Optional[Eviction]) -> List[Eviction]:
        if eviction is not None and eviction.dirty_sectors:
            return [eviction]
        return []


class PartitionL2:
    """The two L2 banks of one memory partition."""

    def __init__(self, gpu: GPUConfig, partition_id: int,
                 observer=None) -> None:
        bank_cfg = CacheConfig(
            size_bytes=gpu.l2_bank_size,
            ways=gpu.l2_ways,
            mshr_entries=gpu.l2_mshr_entries,
            mshr_merge=gpu.l2_mshr_merge,
        )
        self.banks = [
            L2Bank(bank_cfg, name=f"l2-p{partition_id}-b{i}",
                   observer=observer)
            for i in range(gpu.l2_banks_per_partition)
        ]

    def bank_for(self, line_key: int) -> L2Bank:
        return self.banks[line_key % len(self.banks)]

    @property
    def sampled_miss_rate(self) -> float:
        accesses = sum(b.sampled_accesses for b in self.banks)
        misses = sum(b.sampled_misses for b in self.banks)
        return misses / accesses if accesses else 0.0

    @property
    def sampled_accesses(self) -> int:
        return sum(b.sampled_accesses for b in self.banks)

    def reset_sampling(self) -> None:
        for bank in self.banks:
            bank.reset_sampling()

    def flush(self) -> List[Eviction]:
        evictions = []
        for bank in self.banks:
            evictions.extend(bank.flush())
        return evictions
