"""The memory-request pipeline (the request layer).

A :class:`MemoryPipeline` owns the L2 partitions, the per-partition
MEEs and the DRAM channels, and walks every access through the
lifecycle the paper studies — issued → L2 → metadata (MEE) → DRAM →
complete.  :meth:`MemoryPipeline.run_batch` is the run loop: it takes
one kernel's accesses through the issue window in a single fused pass.
:meth:`MemoryPipeline.access` is the same lifecycle for one access, the
straight-line reference the batch loop is tested against.  An attached
observer is called directly at the lifecycle transitions, as the
channels, L2 banks and MEEs call it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.mshr import MSHRFile
    from repro.sim.events import CompletionWindow
    from repro.sim.stats import LatencyStats

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import TrafficCounters
from repro.core.mee import MemoryEncryptionEngine
from repro.memory.cache import Eviction
from repro.memory.dram import DRAMChannel
from repro.memory.l2 import SAMPLE_STRIDE, PartitionL2
from repro.obs.observer import NULL_OBSERVER
from repro.sim.stats import L2Stats

#: Completion latency of an L2 hit (core <-> L2 round trip).
L2_HIT_LATENCY = 90

class MemoryPipeline:
    """L2 → MEE → DRAM for one simulation instance.

    The pipeline owns the traffic/L2 accounting and the (optional)
    address-stream recording; the simulator owns workload sequencing
    and result assembly.
    """

    def __init__(
        self,
        config: SimConfig,
        mapper: AddressMapper,
        channels: List[DRAMChannel],
        l2: List[PartitionL2],
        mees: List[MemoryEncryptionEngine],
        observer=None,
        record_stream: bool = False,
    ) -> None:
        self.config = config
        self.mapper = mapper
        self.channels = channels
        self.l2 = l2
        self.mees = mees
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        self.record_stream = record_stream
        self.streams: Dict[int, List[Tuple[int, bool, int]]] = {
            p: [] for p in range(config.gpu.num_partitions)
        }
        self.traffic = TrafficCounters()
        self.l2_stats = L2Stats()
        self.kernel_idx = 0
        self._hash_latency = config.gpu.hash_latency
        self._victim_mode = config.scheme.l2_victim_cache
        # Every metadata transfer is placed on its channel, and booked
        # in this pipeline's traffic counters, when the MEE emits it.
        for mee in mees:
            mee.attach_channels(channels, self.traffic)
        #: Translate/classify memo of the batch core: access tuple
        #: ``(addr, is_write, nsectors)`` -> its precomputed route (see
        #: :meth:`translate_batch`).  Address mapping, bank selection
        #: and sector arithmetic are pure functions of the access and
        #: the (fixed) topology, so each distinct access is resolved
        #: once per pipeline.
        self._xlate: Dict[Tuple[int, bool, int], tuple] = {}

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, issue: float, addr: int, is_write: bool,
               nsectors: int) -> float:
        """Run one access through the full lifecycle; returns its
        completion cycle.

        The per-access reference of :meth:`run_batch`: the address is
        mapped afresh and every read goes through the L2 bank's lookup,
        with no translation memo and no inlined hit path.
        """
        line_addr = addr - addr % constants.BLOCK_SIZE
        line_key = line_addr // constants.BLOCK_SIZE
        local = self.mapper.to_local(line_addr)
        partition = local.partition
        bank = self.l2[partition].bank_for(line_key)
        first_sector = (addr % constants.BLOCK_SIZE) // constants.SECTOR_SIZE
        last_sector = min(first_sector + nsectors, constants.SECTORS_PER_BLOCK)

        self.l2_stats.accesses += 1
        completion = issue + L2_HIT_LATENCY
        if is_write:
            # Stores allocate without fetching (full-sector writes).
            # They occupy a frontend slot briefly (store buffer); a
            # displaced dirty line's write-back backpressures them.
            if bank.cache.has_line(line_key):
                # Resident line: no eviction is possible, so the whole
                # sector loop collapses to one bulk mask update.
                bank.cache.access_range(
                    line_key, first_sector, last_sector,
                    is_write=True, fetch_on_miss=False,
                )
            else:
                # The line must be allocated; a displaced dirty line's
                # write-back can (in victim mode) reshape this very set
                # between sector accesses, so keep the sequential loop.
                for sector in range(first_sector, last_sector):
                    result = bank.cache.access(
                        line_key, sector, is_write=True, fetch_on_miss=False
                    )
                    if result.eviction is not None and result.eviction.dirty_sectors:
                        wb_done = self.writeback(issue, result.eviction)
                        completion = max(completion, wb_done)
            return completion

        merged_done, fetch_sectors, eviction = bank.access_data_range(
            line_key, first_sector, last_sector, issue
        )
        if merged_done > completion:
            completion = merged_done
        if self._observe:
            self.obs.l2_access(issue, partition, fetch_sectors is not None)
        if fetch_sectors is not None:
            done = self._read_miss(issue, partition, line_addr, line_key,
                                   local.offset, fetch_sectors, bank.mshr)
            completion = max(completion, done)
        if eviction is not None and eviction.dirty_sectors:
            self.writeback(issue, eviction)
        return completion

    def _read_miss(self, issue: float, partition: int, line_addr: int,
                   line_key: int, local_offset: int,
                   fetch_sectors: List[int], mshr: "MSHRFile") -> float:
        """One L2 read miss (both :meth:`access` and :meth:`run_batch`):
        the MEE metadata walk, the demand DRAM fetch and the MSHR fill
        burst.  Returns the cycle the decrypted data is ready."""
        self.l2_stats.misses += 1
        ctr_done = 0.0
        if self.mees:
            mee = self.mees[partition]
            ctr_done = mee.on_read_miss(issue, line_addr, local_offset)
            if mee.displaced:
                # Victim insertions of the walk displaced dirty data
                # lines from the L2; they leave by the secure write path.
                for line in _take_displaced(mee):
                    self.writeback(issue, line)
            if ctr_done:
                # Pad generation (AES) starts when the counter arrives;
                # decryption cannot complete before it.
                ctr_done += self._hash_latency
        data_done = self.schedule(issue, partition,
                                  len(fetch_sectors) * constants.SECTOR_SIZE,
                                  False, line_addr)
        done = data_done if data_done >= ctr_done else ctr_done
        mshr.allocate_burst(line_key, fetch_sectors, done, issue)
        if self.record_stream:
            self.streams[partition].append(
                (local_offset, False, self.kernel_idx)
            )
        return done

    # ------------------------------------------------------------------
    # Batch core (the event-driven execution path)
    # ------------------------------------------------------------------

    def translate_batch(self, accesses) -> list:
        """Translate + classify one kernel batch in a single pass.

        Each access tuple resolves to ``(is_write, line_addr,
        line_key, partition, local_offset, bank, cache, first, last,
        n, range_mask, sampled, lines, mshr)`` — the physical-to-local
        mapping, home L2 bank (resolved down to the bank's set dict and
        MSHR file, so the hot loop does no partition/bank/set
        indexing), the clamped sector range and its bitmask, and
        whether the line falls in a miss-rate-sampled set.  Distinct
        accesses are memoised in :attr:`_xlate`; repeated addresses
        (the common case in the suite's strided kernels) cost one dict
        probe.
        """
        memo = self._xlate
        out = []
        append = out.append
        miss = memo.get
        mapper = self.mapper
        ilv_shift = mapper._ilv_shift
        ilv_mask = mapper._ilv_mask
        ilv = mapper.interleave_bytes
        nparts = mapper.num_partitions
        l2 = self.l2
        block = constants.BLOCK_SIZE
        sector_size = constants.SECTOR_SIZE
        spb = constants.SECTORS_PER_BLOCK
        for acc in accesses:
            entry = miss(acc)
            if entry is None:
                addr, is_write, nsectors = acc
                line_addr = addr - addr % block
                line_key = line_addr // block
                # AddressMapper.to_local, inlined (skips its memo and
                # the LocalAddress wrapper — the translation memo above
                # already caches per distinct access).
                chunk = line_addr >> ilv_shift
                partition = chunk % nparts
                local_offset = ((chunk // nparts) * ilv
                                + (line_addr & ilv_mask))
                bank = l2[partition].bank_for(line_key)
                cache = bank.cache
                first = (addr % block) // sector_size
                last = first + nsectors
                if last > spb:
                    last = spb
                n = last - first
                set_idx = line_key % cache.num_sets
                entry = (is_write, line_addr, line_key, partition,
                         local_offset, bank, cache, first, last, n,
                         ((1 << n) - 1) << first if n > 0 else 0,
                         set_idx % SAMPLE_STRIDE == 0,
                         cache._sets[set_idx], bank.mshr)
                memo[acc] = entry
            append(entry)
        return out

    def run_batch(self, window: "CompletionWindow", accesses,
                  latency: "LatencyStats") -> None:
        """Run one kernel batch through the full lifecycle (the run
        loop, observed or not).

        Semantically this is exactly ``for each access: window.issue()
        -> self.access(...) -> latency.record -> window.complete()``,
        with the window state, the L2 fast paths and the latency
        accumulators hoisted into locals; every float operation happens
        in the same order as that per-access drive, so results are
        bit-identical.  A read miss goes through :meth:`_read_miss`,
        the helper :meth:`access` uses; store allocation drops into
        :meth:`_store_alloc`.  An attached observer sees a stall span
        whenever the full window delays an issue, then, per read, its
        L2 lookup, its demand transfer and its latency.
        """
        if not accesses:
            return
        translated = self.translate_batch(accesses)
        # Window state (the event queue), hoisted.
        heap = window.inflight
        cap = window.max_inflight
        gap = window.gap
        seq = window.seq
        stall_cycles = window.stall_cycles
        last_completion = window.last_completion
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Pipeline state, hoisted.
        hit_latency = L2_HIT_LATENCY
        store_alloc = self._store_alloc
        writeback = self.writeback
        read_miss = self._read_miss
        observe = self._observe
        obs = self.obs
        latencies: List[float] = []
        record = latencies.append
        self.l2_stats.accesses += len(translated)
        issue = window.last_issue

        for entry in translated:
            (is_write, line_addr, line_key, partition, local_offset,
             bank, cache, first, last, n, range_mask, sampled, lines,
             mshr) = entry
            # -- issue: jump the clock to the next ready event --------
            prev_issue = issue
            issue = seq * gap
            seq += 1
            if len(heap) >= cap:
                freed = heappop(heap)
                if freed > issue:
                    stall = freed - issue
                    stall_cycles += stall
                    issue = freed
                    if observe:
                        # Only the advance past the previous issue is
                        # new stall: with a near-zero issue gap every
                        # queued access nominally waits from cycle ~0.
                        start = issue - stall
                        if start < prev_issue:
                            start = prev_issue
                        if issue > start:
                            obs.stall(start, issue)
            # -- L2 ---------------------------------------------------
            completion = issue + hit_latency
            if is_write:
                if not cache.write_range_resident(line_key, first, last):
                    completion = store_alloc(issue, line_key, bank, first,
                                             last, completion)
            else:
                line = lines.get(line_key)
                if (line is not None and range_mask
                        and line.valid_mask & range_mask == range_mask):
                    # Full hit: inlined from L2Bank.access_data_range's
                    # all-resident outcome — same stats, sampling, LRU
                    # motion and MSHR merges, no call layers.
                    if sampled:
                        bank.sampled_accesses += n
                    cache.accesses += n
                    cache.hits += n
                    if next(reversed(lines)) is not line_key:
                        del lines[line_key]
                        lines[line_key] = line
                    outstanding = mshr._outstanding
                    if outstanding:
                        merged_done = 0.0
                        lookup = mshr.lookup
                        for sector in range(first, last):
                            sector_key = (line_key, sector)
                            if sector_key in outstanding:
                                merged = lookup(sector_key, issue)
                                if (merged is not None
                                        and merged > merged_done):
                                    merged_done = merged
                        if merged_done > completion:
                            completion = merged_done
                    if observe:
                        obs.l2_access(issue, partition, False)
                else:
                    merged_done, fetch_sectors, eviction = \
                        bank.access_data_range(line_key, first, last, issue)
                    if merged_done > completion:
                        completion = merged_done
                    if observe:
                        obs.l2_access(issue, partition,
                                      fetch_sectors is not None)
                    if fetch_sectors is not None:
                        done = read_miss(issue, partition, line_addr,
                                         line_key, local_offset,
                                         fetch_sectors, mshr)
                        if completion < done:
                            completion = done
                    if eviction is not None and eviction.dirty_sectors:
                        writeback(issue, eviction)
                record(completion - issue)
                if observe:
                    obs.read_latency(issue, completion - issue)
            # -- complete: push the completion event ------------------
            heappush(heap, completion)
            if completion > last_completion:
                last_completion = completion

        window.seq = seq
        window.stall_cycles = stall_cycles
        window.last_issue = issue
        window.last_completion = last_completion
        latency.record_batch(latencies)

    def _store_alloc(self, issue: float, line_key: int, bank, first: int,
                     last: int, completion: float) -> float:
        """The batch core's store-allocate slow path: the line must be
        allocated.  With the victim cache off, the displaced line's
        write-back cannot touch any L2 data set, so the whole sector
        loop collapses to one bulk allocate with at most one victim;
        in victim mode the write-back can reshape this very set
        between sector accesses, so the sequential per-sector loop of
        :meth:`access` is kept."""
        cache = bank.cache
        if not self._victim_mode:
            _, _, eviction = cache.access_range(
                line_key, first, last, is_write=True, fetch_on_miss=False
            )
            if eviction is not None and eviction.dirty_sectors:
                wb_done = self.writeback(issue, eviction)
                if wb_done > completion:
                    completion = wb_done
            return completion
        for sector in range(first, last):
            result = cache.access(
                line_key, sector, is_write=True, fetch_on_miss=False
            )
            if result.eviction is not None and result.eviction.dirty_sectors:
                wb_done = self.writeback(issue, result.eviction)
                completion = max(completion, wb_done)
        return completion

    # ------------------------------------------------------------------
    # Write-back path
    # ------------------------------------------------------------------

    def writeback(self, issue: float, eviction: Eviction) -> float:
        """Process dirty L2 lines reaching memory (iteratively: victim
        insertions may displace further dirty data lines).  Returns the
        completion time of the last data write (store backpressure)."""
        last_done = issue
        # The displacement queue is created lazily: the overwhelmingly
        # common write-back displaces nothing, and this path also runs
        # once per dirty line at teardown.
        queue: Optional[deque] = None
        ev: Optional[Eviction] = eviction
        while ev is not None:
            key = ev.key
            size = ev.dirty_sectors * constants.SECTOR_SIZE
            # Victim metadata lines (non-int keys) are already
            # accounted; clean lines cause no traffic.
            if isinstance(key, int) and size > 0:
                phys = key * constants.BLOCK_SIZE
                # AddressMapper.to_local, inlined (skips its memo and
                # the LocalAddress wrapper on the per-eviction path).
                mapper = self.mapper
                nparts = mapper.num_partitions
                chunk = phys >> mapper._ilv_shift
                partition = chunk % nparts
                local_offset = ((chunk // nparts) * mapper.interleave_bytes
                                + (phys & mapper._ilv_mask))
                done = self.schedule(issue, partition, size, True, phys)
                if done > last_done:
                    last_done = done
                self.l2_stats.writebacks += 1
                if self.record_stream:
                    self.streams[partition].append(
                        (local_offset, True, self.kernel_idx)
                    )
                if self.mees:
                    mee = self.mees[partition]
                    mee.on_writeback(issue, phys, local_offset)
                    if mee.displaced:
                        if queue is None:
                            queue = deque()
                        queue.extend(_take_displaced(mee))
            ev = queue.popleft() if queue else None
        return last_done

    # ------------------------------------------------------------------
    # Demand-data transfers
    # ------------------------------------------------------------------

    def schedule(self, issue: float, partition: int, size: int,
                 is_write: bool, address: int) -> float:
        """Place one demand-data transfer (a read miss's fetch or a
        write-back) on its home channel and book it; returns its
        completion cycle.  Metadata transfers never come through here:
        the MEE places them as its policies emit them."""
        channel = self.channels[partition]
        if channel.fifo_fast:
            # DRAMChannel.occupy, inlined (fifo_fast is off on observed
            # channels, so no dram event can be owed).
            start = channel._next_free
            if issue > start:
                start = issue
            occupancy = (channel.request_overhead
                         + size / channel.bytes_per_cycle)
            if is_write != channel._last_was_write:
                occupancy += channel.turnaround
                channel._last_was_write = is_write
            next_free = start + occupancy
            channel._next_free = next_free
            stats = channel.stats
            stats.requests += 1
            stats.busy_cycles += occupancy
            if is_write:
                stats.write_bytes += size
            else:
                stats.read_bytes += size
            done = next_free + channel.latency
        else:
            done = channel.service(issue, size, is_write, address=address)
        self.traffic.data_bytes += size
        if self._observe:
            self.obs.traffic(issue, partition, "data", size, is_write)
        return done

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def final_flush(self, end: float) -> float:
        """Context teardown: dirty data leaves the L2 through the
        secure write path, dirty metadata drains to DRAM, and any
        writes a scheduler was still deferring are issued.  Returns the
        completion cycle of the last teardown transfer (>= ``end``)."""
        last = end
        for partition in range(self.config.gpu.num_partitions):
            for eviction in self.l2[partition].flush():
                last = max(last, self.writeback(end, eviction))
        for mee in self.mees:
            last = max(last, mee.flush(end))
        for channel in self.channels:
            last = max(last, channel.drain())
        return last


def _take_displaced(mee: MemoryEncryptionEngine) -> List[Eviction]:
    """Hand off the dirty data lines a victim-cache walk displaced from
    the L2, as write-back obligations (and clear the MEE's list, which
    those write-backs' own walks may refill)."""
    lines = [Eviction(key=d.line_key, dirty_sectors=d.dirty_sectors,
                      valid_sectors=d.dirty_sectors) for d in mee.displaced]
    mee.displaced.clear()
    return lines
