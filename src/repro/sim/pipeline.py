"""The memory-request pipeline (the request layer).

One typed :class:`MemoryRequest` walks the lifecycle the paper
studies — issued → L2 → metadata (MEE) → DRAM → complete — through a
:class:`MemoryPipeline` that owns the L2 partitions, the per-partition
MEEs and the DRAM channels.  :class:`~repro.sim.gpu.GPUSimulator`
shrinks to wiring (construct the components, drive the frontend) plus
result assembly; the float plumbing that used to be hand-rolled across
``_access``/``_writeback``/``_schedule`` lives here, and observability
attaches through :class:`PipelineHooks` at the lifecycle transitions
instead of being inlined at each call site.
"""

from __future__ import annotations

import heapq
from collections import deque
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import CompletionWindow
    from repro.sim.stats import LatencyStats

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import TrafficCounters
from repro.core.mee import DRAMRequest, MEEResult, MemoryEncryptionEngine
from repro.memory.cache import Eviction
from repro.memory.dram import DRAMChannel
from repro.memory.l2 import SAMPLE_STRIDE, PartitionL2
from repro.sim.stats import L2Stats

#: Completion latency of an L2 hit (core <-> L2 round trip).
L2_HIT_LATENCY = 90

#: DRAM-request kind -> the :class:`TrafficCounters` attribute that
#: accumulates its bytes.  :meth:`MemoryPipeline.schedule` refuses
#: kinds that are not registered here: an unknown kind used to be
#: silently booked as demand data, which corrupted every overhead
#: ratio derived from the traffic breakdown.
TRAFFIC_KIND_COUNTERS: Dict[str, str] = {
    "data": "data_bytes",
    "ctr": "counter_bytes",
    "mac": "mac_bytes",
    "bmt": "bmt_bytes",
    "mispred": "misprediction_bytes",
}


def register_traffic_kind(kind: str, counter_attr: str) -> None:
    """Register a custom DRAM-request kind.

    Schemes that emit new metadata kinds must map them to an existing
    :class:`TrafficCounters` attribute before the pipeline will
    schedule them (``schedule`` raises on unregistered kinds).
    """
    if counter_attr not in TrafficCounters.__dataclass_fields__:
        raise ValueError(
            f"unknown TrafficCounters attribute {counter_attr!r}"
        )
    TRAFFIC_KIND_COUNTERS[kind] = counter_attr


class Stage(Enum):
    """Lifecycle position of one memory request."""

    ISSUED = "issued"
    L2 = "l2"
    METADATA = "metadata"
    DRAM = "dram"
    COMPLETE = "complete"


class MemoryRequest:
    """One warp memory access moving through the pipeline.

    A ``__slots__`` class rather than a dataclass: one instance is
    created per simulated access, so instance-dict allocation is pure
    hot-path overhead.

    Fields beyond the constructor arguments:

    * ``stage`` — lifecycle position (:class:`Stage`);
    * ``partition`` — home partition (set once the address is mapped);
    * ``l2_miss`` — did the L2 lookup miss (any sector need a fetch)?
    * ``completion`` — completion cycle (valid once COMPLETE);
    * ``ctr_done`` — cycle the decrypt-critical counter fetch (if any)
      resolved;
    * ``fetch_sectors`` — sectors of the line that needed a DRAM fetch.
    """

    __slots__ = ("issue", "address", "is_write", "nsectors", "stage",
                 "partition", "l2_miss", "completion", "ctr_done",
                 "fetch_sectors")

    def __init__(self, issue: float, address: int, is_write: bool,
                 nsectors: int) -> None:
        self.issue = issue
        self.address = address
        self.is_write = is_write
        self.nsectors = nsectors
        self.stage = Stage.ISSUED
        self.partition = -1
        self.l2_miss = False
        self.completion = 0.0
        self.ctr_done = 0.0
        self.fetch_sectors: List[int] = _NO_SECTORS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryRequest(issue={self.issue}, address={self.address}, "
            f"is_write={self.is_write}, nsectors={self.nsectors}, "
            f"stage={self.stage}, completion={self.completion})"
        )


#: Shared empty fetch list for requests that never miss.  Treated as
#: immutable — the pipeline replaces it, never appends to it.
_NO_SECTORS: List[int] = []


class PipelineHooks:
    """No-op lifecycle hooks.  Subclass and attach to a pipeline to
    observe transitions; :class:`ObserverHooks` adapts them onto the
    :class:`repro.obs.observer.Observer` event vocabulary."""

    enabled = False

    def l2_checked(self, request: MemoryRequest) -> None:
        """A read finished its L2 lookup (``request.l2_miss`` set)."""

    def metadata_request(self, issue: float, dram_request: DRAMRequest,
                         done: float) -> None:
        """One MEE-generated transfer was placed on its channel."""

    def data_transfer(self, issue: float, partition: int, size: int,
                      is_write: bool) -> None:
        """A demand data transfer was placed on its channel."""

    def completed(self, request: MemoryRequest) -> None:
        """The request reached COMPLETE."""


class ObserverHooks(PipelineHooks):
    """Adapts lifecycle transitions to the observer event stream."""

    enabled = True

    def __init__(self, obs) -> None:
        self.obs = obs

    def l2_checked(self, request: MemoryRequest) -> None:
        self.obs.l2_access(request.issue, request.partition,
                           miss=request.l2_miss)

    def metadata_request(self, issue: float, dram_request: DRAMRequest,
                         done: float) -> None:
        self.obs.traffic(issue, dram_request.partition, dram_request.kind,
                         dram_request.size, dram_request.is_write)
        self.obs.mee_op(dram_request.partition, dram_request.kind,
                        dram_request.is_write, issue, done,
                        critical=dram_request.critical)

    def data_transfer(self, issue: float, partition: int, size: int,
                      is_write: bool) -> None:
        self.obs.traffic(issue, partition, "data", size, is_write)


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
        hooks: Optional[PipelineHooks] = None,
        record_stream: bool = False,
    ) -> None:
        self.config = config
        self.mapper = mapper
        self.channels = channels
        self.l2 = l2
        self.mees = mees
        self.hooks = hooks if hooks is not None else PipelineHooks()
        self._observe = self.hooks.enabled
        self.record_stream = record_stream
        self.streams: Dict[int, List[Tuple[int, bool, int]]] = {
            p: [] for p in range(config.gpu.num_partitions)
        }
        self.traffic = TrafficCounters()
        self.l2_stats = L2Stats()
        self.kernel_idx = 0
        self._hash_latency = config.gpu.hash_latency
        self._victim_mode = config.scheme.l2_victim_cache
        # Arm the MEEs' direct-emission fast path (metadata transfers
        # occupy their channel at emission time, bypassing the
        # DRAMRequest lists and the schedule() loop) — the MEE itself
        # refuses to arm when an observer or the victim cache needs
        # the materialised request stream.
        self._direct_meta = False
        if mees:
            for mee in mees:
                mee.attach_direct(channels, self.traffic)
            self._direct_meta = mees[0]._direct
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
               nsectors: int) -> MemoryRequest:
        """Run one access through the full lifecycle; the returned
        request carries its completion cycle."""
        if self._direct_meta and self._observe:
            # Hooks were attached after construction: disarm direct
            # emission so the metadata_request stream they observe is
            # the complete materialised one.
            for mee in self.mees:
                mee.detach_direct()
            self._direct_meta = False
        request = MemoryRequest(issue, addr, is_write, nsectors)
        line_addr = addr - addr % constants.BLOCK_SIZE
        line_key = line_addr // constants.BLOCK_SIZE
        local = self.mapper.to_local(line_addr)
        partition = request.partition = local.partition
        bank = self.l2[partition].bank_for(line_key)
        first_sector = (addr % constants.BLOCK_SIZE) // constants.SECTOR_SIZE
        last_sector = min(first_sector + nsectors, constants.SECTORS_PER_BLOCK)

        self.l2_stats.accesses += 1
        request.stage = Stage.L2
        if is_write:
            # Stores allocate without fetching (full-sector writes).
            # They occupy a frontend slot briefly (store buffer); a
            # displaced dirty line's write-back backpressures them.
            completion = issue + L2_HIT_LATENCY
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
            return self._complete(request, completion)

        completion = issue + L2_HIT_LATENCY
        merged_done, fetch_sectors, eviction = bank.access_data_range(
            line_key, first_sector, last_sector, issue
        )
        if merged_done > completion:
            completion = merged_done

        if fetch_sectors is not None:
            request.fetch_sectors = fetch_sectors
            request.l2_miss = True
        if self._observe:
            self.hooks.l2_checked(request)
        if fetch_sectors is not None:
            self.l2_stats.misses += 1
            ctr_done = 0.0
            if self.mees:
                request.stage = Stage.METADATA
                if self._direct_meta:
                    ctr_done = self.mees[partition].on_read_miss_direct(
                        issue, line_addr, local.offset
                    )
                else:
                    ctr_done = self._read_miss_meta(
                        issue, partition, line_addr, local.offset
                    )
                if ctr_done:
                    # Pad generation (AES) starts when the counter
                    # arrives; decryption cannot complete before it.
                    ctr_done += self.config.gpu.hash_latency
            request.ctr_done = ctr_done
            request.stage = Stage.DRAM
            size = len(fetch_sectors) * constants.SECTOR_SIZE
            data_done = self.channels[partition].service(
                issue, size, address=line_addr
            )
            self.traffic.data_bytes += size
            if self._observe:
                self.hooks.data_transfer(issue, partition, size, False)
            done = max(data_done, ctr_done)
            for sector in fetch_sectors:
                bank.register_fill(line_key, sector, done, issue)
            completion = max(completion, done)
            if self.record_stream:
                self.streams[partition].append(
                    (local.offset, False, self.kernel_idx)
                )

        if eviction is not None and eviction.dirty_sectors:
            self.writeback(issue, eviction)
        return self._complete(request, completion)

    def _read_miss_meta(self, issue: float, partition: int, line_addr: int,
                        local_offset: int) -> float:
        """The MEE walk of a read miss on the materialised path (both
        cores): schedule its transfers, then send the dirty data lines
        its victim insertions displaced from the L2 through the secure
        write path.  Returns the decrypt-critical completion cycle."""
        mee_result = self.mees[partition].on_read_miss(
            issue, line_addr, local_offset
        )
        ctr_done, _ = self.schedule(issue, mee_result)
        for disp in mee_result.displaced_data:
            self.writeback(issue, Eviction(
                key=disp.line_key,
                dirty_sectors=disp.dirty_sectors,
                valid_sectors=disp.dirty_sectors,
            ))
        return ctr_done

    def _complete(self, request: MemoryRequest,
                  completion: float) -> MemoryRequest:
        request.stage = Stage.COMPLETE
        request.completion = completion
        if self._observe:
            self.hooks.completed(request)
        return request

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
        """Run one kernel batch through the full lifecycle (the event
        core's fused loop).

        Semantically this is exactly ``for each access: window.issue()
        -> self.access(...) -> latency.record -> window.complete()``,
        with the window state, the L2 fast paths and the latency
        accumulators hoisted into locals; every float operation happens
        in the same order as the legacy per-access path, so results
        are bit-identical (the golden oracle runs on this core).  The
        read-miss block is inlined from :meth:`access` operation for
        operation; store allocation drops into :meth:`_store_alloc`,
        which mirrors it too.  Hooks are not consulted — the simulator routes observed
        runs through the legacy core, where the per-request
        :class:`PipelineHooks` stream is emitted unchanged.  Decision
        ledger taps (:mod:`repro.obs.decisions`) are the exception:
        they live inside the MEE's decision sites, fire on this fused
        path too, and therefore never force the fallback.
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
        last_stall = window.last_stall
        last_completion = window.last_completion
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Pipeline state, hoisted.
        hit_latency = L2_HIT_LATENCY
        store_alloc = self._store_alloc
        writeback = self.writeback
        read_miss_meta = self._read_miss_meta
        mees = self.mees
        channels = self.channels
        traffic = self.traffic
        l2_stats = self.l2_stats
        streams = self.streams
        record_stream = self.record_stream
        kernel_idx = self.kernel_idx
        hash_latency = self._hash_latency
        direct_meta = self._direct_meta
        sector_size = constants.SECTOR_SIZE
        latencies: List[float] = []
        record = latencies.append
        l2_stats.accesses += len(translated)
        issue = window.last_issue

        for entry in translated:
            (is_write, line_addr, line_key, partition, local_offset,
             bank, cache, first, last, n, range_mask, sampled, lines,
             mshr) = entry
            # -- issue: jump the clock to the next ready event --------
            issue = seq * gap
            seq += 1
            last_stall = 0.0
            if len(heap) >= cap:
                freed = heappop(heap)
                if freed > issue:
                    last_stall = freed - issue
                    stall_cycles += last_stall
                    issue = freed
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
                else:
                    merged_done, fetch_sectors, eviction = \
                        bank.access_data_range(line_key, first, last, issue)
                    if merged_done > completion:
                        completion = merged_done
                    if fetch_sectors is not None:
                        # Read miss, inlined from the miss block of
                        # :meth:`access`: MEE metadata walk, demand
                        # DRAM fetch, MSHR fill burst.
                        l2_stats.misses += 1
                        ctr_done = 0.0
                        if mees:
                            if direct_meta:
                                ctr_done = mees[partition].on_read_miss_direct(
                                    issue, line_addr, local_offset
                                )
                            else:
                                ctr_done = read_miss_meta(
                                    issue, partition, line_addr, local_offset
                                )
                            if ctr_done:
                                # Pad generation (AES) starts when the
                                # counter arrives; decryption cannot
                                # complete before it.
                                ctr_done += hash_latency
                        size = len(fetch_sectors) * sector_size
                        channel = channels[partition]
                        if channel.fifo_fast:
                            # DRAMChannel.occupy, inlined (the event
                            # core never runs observed, so no dram
                            # event can be owed).
                            start = channel._next_free
                            if issue > start:
                                start = issue
                            occupancy = (channel.request_overhead
                                         + size / channel.bytes_per_cycle)
                            if channel._last_was_write:
                                occupancy += channel.turnaround
                                channel._last_was_write = False
                            next_free = start + occupancy
                            channel._next_free = next_free
                            ch_stats = channel.stats
                            ch_stats.requests += 1
                            ch_stats.busy_cycles += occupancy
                            ch_stats.read_bytes += size
                            data_done = next_free + channel.latency
                        else:
                            data_done = channel.service(
                                issue, size, address=line_addr
                            )
                        traffic.data_bytes += size
                        done = (data_done if data_done >= ctr_done
                                else ctr_done)
                        mshr.allocate_burst(line_key, fetch_sectors,
                                            done, issue)
                        if completion < done:
                            completion = done
                        if record_stream:
                            streams[partition].append(
                                (local_offset, False, kernel_idx)
                            )
                    if eviction is not None and eviction.dirty_sectors:
                        writeback(issue, eviction)
                record(completion - issue)
            # -- complete: push the completion event ------------------
            heappush(heap, completion)
            if completion > last_completion:
                last_completion = completion

        window.seq = seq
        window.stall_cycles = stall_cycles
        window.last_stall = last_stall
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
                channel = self.channels[partition]
                if channel.fifo_fast:
                    done = channel.occupy(issue, size, True)
                else:
                    done = channel.service(
                        issue, size, is_write=True, address=phys
                    )
                if done > last_done:
                    last_done = done
                self.traffic.data_bytes += size
                self.l2_stats.writebacks += 1
                if self._observe:
                    self.hooks.data_transfer(issue, partition, size, True)
                if self.record_stream:
                    self.streams[partition].append(
                        (local_offset, True, self.kernel_idx)
                    )
                if self.mees:
                    if self._direct_meta:
                        # Direct mode: the secure write path emits
                        # straight to the channels, and (victim cache
                        # off) can displace nothing.
                        self.mees[partition].on_writeback_direct(
                            issue, phys, local_offset
                        )
                    else:
                        mee_result = self.mees[partition].on_writeback(
                            issue, phys, local_offset
                        )
                        self.schedule(issue, mee_result)
                        if mee_result.displaced_data:
                            if queue is None:
                                queue = deque()
                            for disp in mee_result.displaced_data:
                                queue.append(
                                    Eviction(
                                        key=disp.line_key,
                                        dirty_sectors=disp.dirty_sectors,
                                        valid_sectors=disp.dirty_sectors,
                                    )
                                )
            ev = queue.popleft() if queue else None
        return last_done

    # ------------------------------------------------------------------
    # Metadata traffic scheduling
    # ------------------------------------------------------------------

    def schedule(self, issue: float,
                 mee_result: MEEResult) -> Tuple[float, float]:
        """Place the MEE's DRAM requests on their channels; returns
        ``(critical_done, last_done)`` — the completion of the latest
        decrypt-critical transfer, and of the latest transfer overall
        (teardown flushes propagate the latter)."""
        requests = mee_result.requests
        if not requests:
            return 0.0, 0.0
        ctr_done = 0.0
        last_done = 0.0
        traffic = self.traffic
        channels = self.channels
        observe = self._observe
        for req in requests:
            channel = channels[req.partition]
            if channel.fifo_fast:
                # FIFO ``service`` is a pure pass-through to ``occupy``
                # (see DRAMChannel.fifo_fast) — same arithmetic, two
                # call layers fewer on the hottest MEE path.
                done = channel.occupy(issue, req.size, req.is_write)
            else:
                done = channel.service(
                    issue, req.size, req.is_write, address=req.address,
                    kind=req.kind, critical=req.critical,
                )
            # Inline dispatch for the built-in kinds; anything else
            # must be registered (an unknown kind used to be silently
            # booked as demand data).
            kind = req.kind
            if kind == "ctr":
                traffic.counter_bytes += req.size
            elif kind == "mac":
                traffic.mac_bytes += req.size
            elif kind == "bmt":
                traffic.bmt_bytes += req.size
            elif kind == "mispred":
                traffic.misprediction_bytes += req.size
            elif kind == "data":
                traffic.data_bytes += req.size
            else:
                counter_attr = TRAFFIC_KIND_COUNTERS.get(kind)
                if counter_attr is None:
                    raise ValueError(
                        f"unregistered DRAM request kind {kind!r}; "
                        "declare it with repro.sim.pipeline."
                        "register_traffic_kind()"
                    )
                setattr(traffic, counter_attr,
                        getattr(traffic, counter_attr) + req.size)
            if observe:
                self.hooks.metadata_request(issue, req, done)
            if req.critical:
                ctr_done = max(ctr_done, done)
            last_done = max(last_done, done)
        return ctr_done, last_done

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
            if self._direct_meta:
                last = max(last, mee.flush_direct(end))
            else:
                result = MEEResult(requests=mee.flush())
                _, flush_done = self.schedule(end, result)
                last = max(last, flush_done)
        for channel in self.channels:
            last = max(last, channel.drain())
        return last
