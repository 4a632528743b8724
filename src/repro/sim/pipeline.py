"""The memory-request pipeline (the request layer).

A :class:`MemoryPipeline` owns the L2 partitions, the per-partition
MEEs and the DRAM channels, and walks every access through the
lifecycle the paper studies — issued → L2 → metadata (MEE) → DRAM →
complete.  :meth:`MemoryPipeline.run_batch` is the run loop: it takes
one kernel's accesses through the issue window in a single pass,
replaying the workload's resolved L2 routes and outcomes unless the
scheme parks metadata in the L2.  :meth:`MemoryPipeline.access` is the
same lifecycle for one access on the live L2, the straight-line
reference the batch loop is tested against.  An attached observer is called
directly at the lifecycle transitions, as the channels, L2 banks and
MEEs call it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (TYPE_CHECKING, Dict, Hashable, Iterator, List,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.mshr import MSHRFile
    from repro.sim.events import CompletionWindow
    from repro.sim.stats import LatencyStats

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import TrafficCounters
from repro.core.mee import MemoryEncryptionEngine
from repro.memory.dram import DRAMChannel
from repro.memory.l2 import (DIRTY_VICTIM, PartitionL2, ResolvedL2,
                             route_table)
from repro.memory.mshr import MASK_SECTORS
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
        #: The resolved L2 routes and outcomes a non-victim run replays
        #: (see :meth:`replay`), how many it has replayed, the displaced
        #: dirty lines still to come, and what each route code stands
        #: for on this pipeline.
        self._resolved: Optional[ResolvedL2] = None
        self._replayed = 0
        self._evicted: Iterator[int] = iter(())
        self._routes: List[tuple] = []

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, issue: float, addr: int, is_write: bool,
               nsectors: int) -> float:
        """Run one access through the full lifecycle; returns its
        completion cycle.

        The per-access reference of :meth:`run_batch`, and its path in
        victim mode: the address is mapped afresh and every access walks
        the live L2 bank, with no resolved route or outcome.
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
                    eviction = result.eviction
                    if eviction is not None and eviction.dirty_sectors:
                        wb_done = self.writeback(issue, eviction.key,
                                                 eviction.dirty_sectors)
                        completion = max(completion, wb_done)
            return completion

        merged_done, fetch_mask, eviction = bank.access_data_range(
            line_key, first_sector, last_sector, issue
        )
        if merged_done > completion:
            completion = merged_done
        if self._observe:
            self.obs.l2_access(issue, partition, fetch_mask != 0)
        if fetch_mask:
            done = self._read_miss(issue, partition, line_addr, line_key,
                                   local.offset, fetch_mask, bank.mshr)
            completion = max(completion, done)
        if eviction is not None and eviction.dirty_sectors:
            self.writeback(issue, eviction.key, eviction.dirty_sectors)
        return completion

    def _read_miss(self, issue: float, partition: int, line_addr: int,
                   line_key: int, local_offset: int, fetch_mask: int,
                   mshr: "MSHRFile") -> float:
        """One L2 read miss (both :meth:`access` and :meth:`run_batch`):
        the MEE metadata walk, the demand DRAM fetch of the sectors in
        ``fetch_mask`` and the MSHR fill burst.  Returns the cycle the
        decrypted data is ready."""
        self.l2_stats.misses += 1
        ctr_done = 0.0
        if self.mees:
            mee = self.mees[partition]
            ctr_done = mee.on_read_miss(issue, line_addr, local_offset)
            if mee.displaced:
                # Victim insertions of the walk displaced dirty data
                # lines from the L2; they leave by the secure write path.
                for key, dirty_sectors in _take_displaced(mee):
                    self.writeback(issue, key, dirty_sectors)
            if ctr_done:
                # Pad generation (AES) starts when the counter arrives;
                # decryption cannot complete before it.
                ctr_done += self._hash_latency
        sectors = MASK_SECTORS[fetch_mask]
        data_done = self.schedule(issue, partition,
                                  len(sectors) * constants.SECTOR_SIZE,
                                  False, line_addr)
        done = data_done if data_done >= ctr_done else ctr_done
        mshr.allocate_burst(line_key, sectors, done, issue)
        if self.record_stream:
            self.streams[partition].append(
                (local_offset, False, self.kernel_idx)
            )
        return done

    # ------------------------------------------------------------------
    # Batch core (the event-driven execution path)
    # ------------------------------------------------------------------

    def replay(self, resolved: ResolvedL2) -> None:
        """Take this run's L2 routes and outcomes from ``resolved`` (a
        non-victim run: see :class:`~repro.memory.l2.ResolvedL2`)
        instead of translating each access and walking the L2 banks'
        data caches.

        Builds the run's route table: route code ->
        ``(is_write, partition, first, last, range_mask, mshr)``, the
        clamped sector range with its bitmask and the home bank's MSHR
        file, so the replay loop does no partition or bank indexing.
        """
        self._resolved = resolved
        self._replayed = 0
        self._evicted = iter(resolved.evicted)
        mshrs = [bank.mshr for part in self.l2 for bank in part.banks]
        table = route_table(len(mshrs), self.config.gpu.l2_banks_per_partition)
        self._routes = [
            (is_write, partition, first, last, range_mask, mshrs[bank])
            for is_write, partition, first, last, range_mask, bank in table]

    def translate_batch(self, accesses) -> tuple:
        """The next ``len(accesses)`` accesses' resolved route codes,
        line keys and L2 outcomes, as slices of what :meth:`replay`
        attached; the batch's addresses are not read again."""
        at = self._replayed
        end = at + len(accesses)
        resolved = self._resolved
        outcomes = resolved.outcomes[at:end]
        if len(outcomes) != len(accesses):
            raise ValueError("the resolved L2 outcomes hold fewer accesses "
                             "than the workload issues")
        self._replayed = end
        return resolved.routes[at:end], resolved.lines[at:end], outcomes

    def run_batch(self, window: "CompletionWindow", accesses,
                  latency: "LatencyStats") -> None:
        """Run one kernel batch through the full lifecycle (the run
        loop, observed or not).

        Semantically this is exactly ``for each access: window.issue()
        -> self.access(...) -> latency.record -> window.complete()``,
        with the window state and the latency accumulators hoisted into
        locals; every float operation happens in the same order as that
        per-access drive, so results are bit-identical.  When the
        scheme parks no metadata in the L2, each access's route and
        the L2's part of it are read from what :meth:`replay` attached
        (:meth:`translate_batch` hands over the batch's slices): its
        home bank, direction and sector range, what was resident and
        which dirty line left.  So only MSHR merges, read misses
        (:meth:`_read_miss`, the helper :meth:`access` uses; only a
        miss maps its line to a partition-local offset) and
        write-backs run here.  In victim mode the batch takes
        the live L2 loop, :meth:`_run_live`.  An attached observer sees
        a stall span whenever the full window delays an issue, then,
        per read, its L2 lookup, its demand transfer and its latency.
        """
        if not accesses:
            return
        if self._victim_mode:
            self._run_live(window, accesses, latency)
            return
        codes, lines, outcomes = self.translate_batch(accesses)
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
        routes = self._routes
        block = constants.BLOCK_SIZE
        mapper = self.mapper
        ilv_shift = mapper._ilv_shift
        ilv_mask = mapper._ilv_mask
        ilv = mapper.interleave_bytes
        nparts = mapper.num_partitions
        hit_latency = L2_HIT_LATENCY
        writeback = self.writeback
        read_miss = self._read_miss
        next_evicted = self._evicted.__next__
        observe = self._observe
        obs = self.obs
        latencies: List[float] = []
        record = latencies.append
        self.l2_stats.accesses += len(outcomes)
        issue = window.last_issue

        for code, line_key, outcome in zip(codes, lines, outcomes):
            is_write, partition, first, last, range_mask, mshr = routes[code]
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
            # -- L2 (resolved) ----------------------------------------
            completion = issue + hit_latency
            if is_write:
                # A store allocates without fetching; a displaced dirty
                # line's write-back backpressures it.
                if outcome & DIRTY_VICTIM:
                    packed = next_evicted()
                    wb_done = writeback(issue, packed >> 3, packed & 7)
                    if wb_done > completion:
                        completion = wb_done
            else:
                # A sector with a fill in flight merges into it,
                # resident or not (a line evicted and re-read before
                # its fill returns); a missing one fetches.  Most reads
                # find no fill of their line in flight.
                missing = range_mask & ~outcome
                if line_key in mshr.inflight:
                    merged_done, missing = mshr.merge_read(
                        line_key, first, last, missing, issue)
                    if merged_done > completion:
                        completion = merged_done
                if observe:
                    obs.l2_access(issue, partition, missing != 0)
                if missing:
                    # AddressMapper.to_local, inlined: only a read miss
                    # needs the line's partition-local offset.
                    line_addr = line_key * block
                    chunk = line_addr >> ilv_shift
                    done = read_miss(issue, partition, line_addr, line_key,
                                     ((chunk // nparts) * ilv
                                      + (line_addr & ilv_mask)),
                                     missing, mshr)
                    if completion < done:
                        completion = done
                if outcome & DIRTY_VICTIM:
                    packed = next_evicted()
                    writeback(issue, packed >> 3, packed & 7)
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

    def _run_live(self, window: "CompletionWindow", accesses,
                  latency: "LatencyStats") -> None:
        """:meth:`run_batch` in victim mode, where metadata parked in
        the L2 changes what it holds: each access of the kernel's
        :class:`~repro.workloads.base.Trace` walks the live L2 banks
        through :meth:`access`, with the replay loop's stall and
        read-latency observer calls."""
        access = self.access
        observe = self._observe
        obs = self.obs
        latencies: List[float] = []
        record = latencies.append
        for addr, is_write, nsectors in zip(accesses.addresses,
                                            accesses.writes,
                                            accesses.sectors):
            prev_issue = window.last_issue
            ready = window.seq * window.gap
            issue = window.issue()
            if observe and issue > ready:
                # The replay loop's stall span, same float operations.
                stall = issue - ready
                start = issue - stall
                if start < prev_issue:
                    start = prev_issue
                if issue > start:
                    obs.stall(start, issue)
            completion = access(issue, addr, is_write, nsectors)
            if not is_write:
                record(completion - issue)
                if observe:
                    obs.read_latency(issue, completion - issue)
            window.complete(completion)
        latency.record_batch(latencies)

    # ------------------------------------------------------------------
    # Write-back path
    # ------------------------------------------------------------------

    def writeback(self, issue: float, key: Hashable,
                  dirty_sectors: int) -> float:
        """Write back the ``dirty_sectors`` dirty sectors of L2 line
        ``key`` (iteratively: victim insertions may displace further
        dirty data lines).  Returns the completion time of the last
        data write (store backpressure)."""
        last_done = issue
        # The displacement queue is created lazily: the overwhelmingly
        # common write-back displaces nothing, and this path also runs
        # once per dirty line at teardown.
        queue: Optional[deque] = None
        while True:
            size = dirty_sectors * constants.SECTOR_SIZE
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
            if not queue:
                return last_done
            key, dirty_sectors = queue.popleft()

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
        completion cycle of the last teardown transfer (>= ``end``).

        A run that replayed its resolved L2 outcomes writes back the
        resolved flush; its L2 data caches were never touched."""
        last = end
        if self._replayed:
            resolved = self._resolved
            if (self._replayed != len(resolved.outcomes)
                    or next(self._evicted, None) is not None):
                raise ValueError("the run issued fewer accesses than its "
                                 "resolved L2 outcomes hold")
            for packed in resolved.flush:
                last = max(last, self.writeback(end, packed >> 3,
                                                packed & 7))
        else:
            for partition in self.l2:
                for line in partition.flush():
                    last = max(last, self.writeback(end, line.key,
                                                    line.dirty_sectors))
        for mee in self.mees:
            last = max(last, mee.flush(end))
        for channel in self.channels:
            last = max(last, channel.drain())
        return last


def _take_displaced(mee: MemoryEncryptionEngine) -> List[Tuple[int, int]]:
    """Hand off the dirty data lines a victim-cache walk displaced from
    the L2, as ``(line key, dirty sectors)`` write-back obligations (and
    clear the MEE's list, which those write-backs' own walks may
    refill)."""
    lines = [(d.line_key, d.dirty_sectors) for d in mee.displaced]
    mee.displaced.clear()
    return lines
