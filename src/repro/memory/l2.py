"""L2 cache banks with MSHR merging, miss-rate sampling and a
victim-cache mode for security metadata (Section IV-D).

Each memory partition has two L2 banks.  A small fraction of sets is
*sampled*: those sets never receive victim metadata lines, so their
miss rate reflects pure data behaviour — the signal used to decide
when to enable the victim-cache mode (the set-sampling idea of
utility-based cache partitioning).

Outside that mode only data reaches the L2, so :func:`resolve_l2`
computes a workload's L2 routes and outcomes once for every run to
replay.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, List, Optional, Tuple

from repro.common import constants
from repro.common.config import CacheConfig, GPUConfig
from repro.memory.cache import Eviction, SectoredCache
from repro.memory.mshr import MSHRFile
from repro.obs.observer import NULL_OBSERVER

#: One in SAMPLE_STRIDE sets is reserved for data-only sampling.
SAMPLE_STRIDE = 16

#: Flag bit of a resolved outcome byte: the access displaced a dirty
#: line (the low four bits are the access's resident-sector mask).
DIRTY_VICTIM = 1 << constants.SECTORS_PER_BLOCK


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

        result = self.cache.access(line_key, sector, is_write=is_write)
        if result.hit:
            # The sector may still be in flight (the cache marks it
            # resident when the fill is *issued*); a hit then completes
            # when the outstanding fill returns.
            merged = self.mshr.lookup(line_key, sector, now)
            return L2AccessResult(
                hit=True,
                merged_done=merged,
                issue_at=now,
                writebacks=self._writebacks(result.eviction),
                needs_fetch=False,
            )

        if sampled:
            self.sampled_misses += 1
        merged = self.mshr.lookup(line_key, sector, now)
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
    ) -> "Tuple[float, int, Optional[Eviction]]":
        """Bulk form of per-sector :meth:`access_data` calls for one
        read request's sectors ``[first, last)``.

        Produces the same cache statistics, sampling counters, MSHR
        merges and eviction as the equivalent ascending per-sector
        loop, without allocating an :class:`L2AccessResult` per sector.
        Returns ``(merged_done, fetch_mask, eviction)``: the latest
        in-flight fill this access merged into (0.0 when none), the
        mask of the sectors that need a fresh DRAM fetch (0 when none),
        and the displaced victim line (None when the line was resident
        or the set had room).
        """
        n = last - first
        hit_mask, _, eviction = self.cache.access_range(line_key, first, last)
        missing = (((1 << n) - 1) << first) & ~hit_mask
        if (line_key % self.cache.num_sets) % SAMPLE_STRIDE == 0:
            self.sampled_accesses += n
            self.sampled_misses += bin(missing).count("1")
        merged_done, fetch_mask = self.mshr.merge_read(
            line_key, first, last, missing, now)
        return merged_done, fetch_mask, eviction

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


@dataclass
class ResolvedL2:
    """What a workload's accesses find in the L2 when only data moves
    through it, and the route each takes there.

    Without victim parking (Section IV-D) nothing but the data access
    stream reaches an L2 data set, so which sectors each access finds
    resident and which dirty lines it displaces follow from that stream
    and the L2 geometry alone; only MSHR merges depend on timing.
    :func:`resolve_l2` computes these outcomes once per workload and
    :class:`~repro.sim.pipeline.MemoryPipeline` replays them in every
    run that parks no metadata in the L2.  Dirty lines are packed as
    ``line_key << 3 | dirty_sectors``.

    Each access's route through the partition interleave map is a pure
    function of the access and the topology, so it is recorded here
    too: its line key, and a route code that packs its home L2 bank
    (numbered across partitions, ``partition * l2_banks_per_partition
    + line_key % l2_banks_per_partition``), its direction and its
    clamped sector range ``[first, last)`` as ``bank *
    L2_ROUTES_PER_BANK + (is_write * 4 + first) * 5 + last``
    (:func:`route_table` decodes them).
    """

    #: One byte per access, in issue order across kernels: its
    #: resident-sector mask, or'ed with :data:`DIRTY_VICTIM` when it
    #: displaced a dirty line.
    outcomes: bytes
    #: The displaced dirty lines, in the order accesses displaced them.
    evicted: array
    #: The dirty lines left at the end of the run, in flush order.
    flush: array
    #: Each access's line key (its address over the line size).
    lines: array
    #: Each access's route code (16-bit entries).
    routes: array


@lru_cache(maxsize=8)
def route_table(banks: int, banks_per_partition: int) -> tuple:
    """Every route code of :attr:`ResolvedL2.routes` for a topology
    with ``banks`` L2 banks, decoded: ``(is_write, partition, first,
    last, range_mask, bank)`` for each code in turn, ``range_mask``
    being the bitmask of sectors ``[first, last)``."""
    spb = constants.SECTORS_PER_BLOCK
    table = []
    for code in range(banks * constants.L2_ROUTES_PER_BANK):
        bank, within = divmod(code, constants.L2_ROUTES_PER_BANK)
        direction, last = divmod(within, spb + 1)
        is_write, first = divmod(direction, spb)
        n = last - first
        table.append((bool(is_write), bank // banks_per_partition, first,
                      last, ((1 << n) - 1) << first if n > 0 else 0, bank))
    return tuple(table)


def resolve_l2(workload, gpu: GPUConfig) -> ResolvedL2:
    """Run ``workload``'s accesses through bare L2 banks of ``gpu``'s
    geometry, in issue order, and record each access's route and what
    it found: the same cache operations
    :class:`~repro.sim.pipeline.MemoryPipeline` performs on a non-victim
    run, without MSHRs, timing or metadata."""
    l2 = [PartitionL2(gpu, p) for p in range(gpu.num_partitions)]
    caches = [bank.cache for part in l2 for bank in part.banks]
    block = constants.BLOCK_SIZE
    sector_size = constants.SECTOR_SIZE
    spb = constants.SECTORS_PER_BLOCK
    per_bank = constants.L2_ROUTES_PER_BANK
    interleave = gpu.interleave_bytes
    nparts = gpu.num_partitions
    bpp = gpu.l2_banks_per_partition
    outcomes = bytearray()
    evicted = array("q")
    lines = array("q")
    routes = array("H")
    for kernel in workload.kernels:
        for addr, is_write, nsectors in kernel.accesses:
            if nsectors < 0:
                raise ValueError(f"access at {addr:#x} covers {nsectors} "
                                 f"sectors")
            line_key = addr // block
            first = (addr % block) // sector_size
            last = first + nsectors
            if last > spb:
                last = spb
            # PartitionL2.bank_for of the line's home partition, inlined.
            bank = addr // interleave % nparts * bpp + line_key % bpp
            resident, _, eviction = caches[bank].access_range(
                line_key, first, last, is_write, not is_write)
            if eviction is not None and eviction.dirty_sectors:
                evicted.append(eviction.key << 3 | eviction.dirty_sectors)
                resident |= DIRTY_VICTIM
            outcomes.append(resident)
            lines.append(line_key)
            routes.append(bank * per_bank
                          + (is_write * spb + first) * (spb + 1) + last)
    flush = array("q", [line.key << 3 | line.dirty_sectors
                        for part in l2 for line in part.flush()])
    return ResolvedL2(outcomes=bytes(outcomes), evicted=evicted, flush=flush,
                      lines=lines, routes=routes)
