"""The Memory Encryption Engine (Section IV-A, Fig. 6).

One MEE sits in each memory controller.  Every L2 miss and every L2
write back flows through it; the MEE decides — per the active scheme —
which security metadata must move between the metadata caches and
DRAM:

* encryption counters (skipped for read-only regions via the shared
  counter, and for common-counter lines);
* MACs at block or chunk granularity (the dual-granularity design,
  driven by the streaming detector, with the misprediction handling of
  Tables III and IV);
* BMT nodes (skipped entirely for read-only regions — Fig. 4).

The MEE is a *traffic* model: it returns the DRAM requests an access
causes.  The functional encrypt/verify path lives in
:mod:`repro.core.functional`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import Pattern, PredictionStats
from repro.memory.cache import _Line, _popcount
from repro.core.policies import build_policies
from repro.core.readonly import ReadOnlyDetector
from repro.core.streaming import StreamingDetector
from repro.metadata import layout as mlayout
from repro.metadata.caches import (
    KIND_BMT,
    KIND_CTR,
    KIND_MAC,
    DisplacedData,
    MetadataCaches,
    MetaTransfer,
)
from repro.metadata.counters import CommonCounterTable, CounterFile, SharedCounter
from repro.obs.decisions import NULL_LEDGER
from repro.obs.observer import NULL_OBSERVER


class DRAMRequest:
    """One DRAM transfer the simulator must schedule.

    A ``__slots__`` class rather than a dataclass: several instances
    are created per secure L2 miss, so instance-dict allocation is
    measurable hot-path overhead.

    ``critical`` is True when decryption of the demand data waits on
    this transfer (a counter fetch); MAC and BMT transfers are off the
    critical path — data is forwarded to the cores before
    verification.  ``address`` is the metadata carve-out address of
    the transfer (-1 when the request has no single address, e.g. a
    bulk re-encryption); only address-aware DRAM schedulers (the
    banked row-buffer model) consume it.
    """

    __slots__ = ("partition", "size", "is_write", "kind", "critical",
                 "address")

    def __init__(self, partition: int, size: int, is_write: bool,
                 kind: str,  # data / ctr / mac / bmt / mispred
                 critical: bool = False, address: int = -1) -> None:
        self.partition = partition
        self.size = size
        self.is_write = is_write
        self.kind = kind
        self.critical = critical
        self.address = address

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAMRequest(partition={self.partition}, size={self.size}, "
            f"is_write={self.is_write}, kind={self.kind!r}, "
            f"critical={self.critical}, address={self.address})"
        )


class MEEResult:
    """Everything one data access caused.

    ``displaced_data`` holds dirty data lines displaced from the L2 by
    victim insertions; the simulator must run them through the write
    path.  A ``__slots__`` class: one instance is created per L2 miss
    and per write-back.
    """

    __slots__ = ("requests", "displaced_data")

    def __init__(self, requests: Optional[List[DRAMRequest]] = None,
                 displaced_data: Optional[List[DisplacedData]] = None) -> None:
        self.requests: List[DRAMRequest] = (
            [] if requests is None else requests
        )
        self.displaced_data: List[DisplacedData] = (
            [] if displaced_data is None else displaced_data
        )


class TruthProvider:
    """Oracle ground truth from the profiling pass (see
    :mod:`repro.sim.profiling`).  The default implementation knows
    nothing and disables prediction-accuracy accounting."""

    def readonly_truth(self, partition: int, kernel: int, region: int) -> Optional[bool]:
        return None

    def stream_truth(self, partition: int, chunk: int, seq: int) -> Optional[Pattern]:
        return None

    def first_phase_patterns(self, partition: int) -> Dict[int, Pattern]:
        return {}

    def readonly_regions(self, partition: int, kernel: int) -> List[int]:
        return []


class MemoryEncryptionEngine:
    """One partition's MEE plus its detectors and metadata caches."""

    def __init__(
        self,
        partition_id: int,
        config: SimConfig,
        mapper: AddressMapper,
        shared_counter: SharedCounter,
        truth: Optional[TruthProvider] = None,
        observer=None,
        ledger=None,
    ) -> None:
        self.partition_id = partition_id
        self.config = config
        self.scheme = config.scheme
        self.mapper = mapper
        self.shared_counter = shared_counter
        self.truth = truth or TruthProvider()
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        # Decision ledger: a *separate* channel from the observer.  It
        # taps at decision granularity only, so — unlike an observer —
        # it does NOT flip _observe, does not degrade _fast_meta and
        # never disarms direct emission: ledgered runs keep the event
        # core and its fused fast paths.
        self.led = ledger if ledger is not None else NULL_LEDGER
        self._led = self.led.enabled
        # Cost scope (see _led_begin/_led_end): while _led_track is
        # set, every emission funnel accumulates the bytes/transfers it
        # books, so a decision's remedial traffic is charged to it.
        self._led_track = False
        self._led_bytes = 0.0
        self._led_transfers = 0

        self.caches = MetadataCaches(config.mdc, partition_id,
                                     observer=observer)
        self.readonly = ReadOnlyDetector(self.scheme.detectors)
        self.streaming = StreamingDetector(self.scheme.detectors)
        self.counters = CounterFile()
        self.common = CommonCounterTable()
        self.layout = mlayout.MetadataLayout()

        # The scheme's policy composition (see repro.core.policies):
        # the counter stack, the MAC discipline and the integrity tree.
        protected = constants.PROTECTED_MEMORY_BYTES
        if self.scheme.local_metadata:
            protected //= config.gpu.num_partitions
        self.counter_policy, self.mac_policy, integrity = build_policies(self)
        self.bmt = integrity.build_walker(protected)

        # Per-scheme knobs resolved once (the per-access path reads
        # these locals instead of chasing scheme attribute chains).
        self._meta_sectors_on_miss = 1 if self.scheme.sectored_counters else 4
        self._is_secure = self.scheme.is_secure
        self._local_metadata = self.scheme.local_metadata
        self._ro_region_size = self.scheme.detectors.readonly_region_size
        self._chunk_size = self.scheme.detectors.stream_chunk_size
        if constants.SECTOR_SIZE % self.scheme.mac_size:
            raise ValueError("mac_size must divide the sector size")
        #: Data blocks covered by one 32 B MAC sector (4 with the 8 B
        #: default, 8 with PSSM's 4 B truncation).
        self._mac_sector_coverage = constants.SECTOR_SIZE // self.scheme.mac_size
        # Hot-path specialisation: when no observer is attached, the
        # metadata helpers probe their MDC hit path inline (see
        # _ctr_access) — the bookkeeping is bit-identical to
        # SectoredCache.access's resident branch, and the instrumented
        # layers only exist to emit events that are off here anyway.
        self._fast_meta = not self._observe
        self._spb = constants.SECTORS_PER_BLOCK
        self._bs = constants.BLOCK_SIZE
        self._ctr_cov = mlayout.CTR_SECTOR_COVERAGE_BLOCKS
        self._ctr_cache = self.caches.counter
        self._mac_cache = self.caches.mac
        self._ro_opt = self.scheme.readonly_optimization
        # Bound policy entry points (the policies are fixed at
        # construction; binding skips two attribute chases per access).
        self._counter_access = self.counter_policy.access
        self._mac_access = self.mac_policy.access
        # Policy-stack fusion: the plain Split + BlockMAC composition
        # (Naive, PSSM) has no detectors, stats or fall-through layers,
        # so _handle can run both policies' bodies inline — exactly
        # the statements SplitCounterPolicy.access and
        # BlockMACPolicy.access would execute, minus the call frames.
        from repro.core.policies.counter import SplitCounterPolicy
        from repro.core.policies.mac import BlockMACPolicy
        self._fused_split_block = (
            type(self.counter_policy) is SplitCounterPolicy
            and type(self.mac_policy) is BlockMACPolicy
        )
        # Direct-emission fast path (armed by the pipeline via
        # :meth:`attach_direct`): metadata transfers occupy their DRAM
        # channel at emission time instead of materialising
        # DRAMRequest lists for ``MemoryPipeline.schedule``.
        self._direct = False
        self._channels: Optional[list] = None
        self._traffic = None
        self._cycle = 0.0
        self._ctr_done = 0.0
        self._empty_result = MEEResult()

        # Statistics.
        self.readonly_stats = PredictionStats()
        self.streaming_stats = PredictionStats()
        self.shared_counter_reads = 0
        self.common_counter_hits = 0
        self.rechecks = 0
        self.kernel_idx = 0
        self._access_seq = 0

    # ------------------------------------------------------------------------
    # Host-side events (command processor)
    # ------------------------------------------------------------------------

    def on_host_copy(self, local_start: int, local_end: int, at_init: bool,
                     cycle: float = 0.0) -> None:
        """A H2D memory copy touched [local_start, local_end) of this
        partition's local space.  At context init it *marks* the
        regions read-only; mid-run it clears them (Section IV-B)."""
        if not self.scheme.readonly_optimization or local_end <= local_start:
            return
        regions = self._regions_in(local_start, local_end)
        if self._led:
            # Probe aliasing before mutating the bit vector.
            led, pid, kernel = self.led, self.partition_id, self.kernel_idx
            readonly = self.readonly
            if at_init:
                for region in regions:
                    led.ro_mark(cycle, pid, kernel, region,
                                "host_copy_init",
                                readonly.aliased_setter(region))
            else:
                for region in regions:
                    led.ro_clear(cycle, pid, kernel, region, "host_copy",
                                 readonly.aliased_clearer(region))
        if at_init:
            self.readonly.mark_read_only(regions)
        else:
            self.readonly.mark_written(regions)

    def input_read_only_reset(self, local_start: int, local_end: int,
                              cycle: float = 0.0) -> int:
        """The new host API (Fig. 9): re-arm regions as read-only and
        raise the shared counter above every major counter in the
        range, preventing cross-kernel replay.  Returns the new shared
        counter value."""
        if local_end <= local_start:
            raise ValueError("empty reset range")
        regions = self._regions_in(local_start, local_end)
        if self.scheme.readonly_optimization:
            if self._led:
                led, pid = self.led, self.partition_id
                kernel = self.kernel_idx
                readonly = self.readonly
                for region in regions:
                    led.ro_mark(cycle, pid, kernel, region, "reset_api",
                                readonly.aliased_setter(region))
            self.readonly.mark_read_only(regions)
        first_line = local_start // (mlayout.CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE)
        last_line = (local_end - 1) // (mlayout.CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE)
        max_major = self.counters.max_major_in_lines(range(first_line, last_line + 1))
        return self.shared_counter.raise_to(max_major)

    def on_kernel_boundary(self, kernel_idx: int, cycle: float = 0.0) -> None:
        self.kernel_idx = kernel_idx
        if self.scheme.oracle_detectors:
            self._oracle_init(kernel_idx, cycle)

    def _oracle_init(self, kernel_idx: int, cycle: float = 0.0) -> None:
        """SHM_upper_bound: seed both predictors from profiling."""
        led = self.led if self._led else None
        for region in self.truth.readonly_regions(self.partition_id, kernel_idx):
            if led is not None:
                led.ro_mark(cycle, self.partition_id, kernel_idx, region,
                            "oracle", self.readonly.aliased_setter(region))
            self.readonly.mark_read_only([region])
        for chunk, pattern in self.truth.first_phase_patterns(self.partition_id).items():
            if led is not None:
                led.stream_preset(cycle, self.partition_id, kernel_idx,
                                  chunk, pattern.value)
            self.streaming.preset(chunk, pattern)

    def _regions_in(self, local_start: int, local_end: int) -> List[int]:
        size = self.scheme.detectors.readonly_region_size
        first = local_start // size
        last = (local_end - 1) // size
        return list(range(first, last + 1))

    # ------------------------------------------------------------------------
    # Main data path
    # ------------------------------------------------------------------------

    def on_read_miss(self, cycle: float, physical: int, local_offset: int) -> MEEResult:
        """An L2 miss fill of one data line (or sector thereof)."""
        return self._handle(cycle, physical, local_offset, is_write=False)

    def on_writeback(self, cycle: float, physical: int, local_offset: int) -> MEEResult:
        """A dirty L2 line written back to DRAM."""
        return self._handle(cycle, physical, local_offset, is_write=True)

    def attach_direct(self, channels: list, traffic) -> None:
        """Arm the direct-emission fast path (pipeline wiring).

        With no observer and no L2 victim cache in play, every metadata
        transfer can occupy its DRAM channel the moment a policy emits
        it — same order, cycle and occupy/service
        arithmetic as :meth:`MemoryPipeline.schedule` consuming the
        equivalent :class:`DRAMRequest` list, so the simulated timing
        and traffic accounting are bit-identical; only the intermediate
        request objects and the scheduler loop disappear.  Callers must
        then use :meth:`on_read_miss_direct` / :meth:`on_writeback_direct`
        whenever ``_direct`` armed.
        """
        self._channels = channels
        self._traffic = traffic
        self._direct = self._fast_meta and not self.scheme.l2_victim_cache

    def detach_direct(self) -> None:
        """Disarm direct emission (hooks attached after construction):
        fall back to materialised :class:`MetaTransfer` /
        :class:`DRAMRequest` streams so every consumer sees them."""
        self._direct = False

    def attach_ledger(self, ledger) -> None:
        """Attach (or detach, with the NULL ledger) a decision ledger
        after construction.  Unlike :meth:`detach_direct`, this leaves
        ``_observe`` / ``_fast_meta`` / ``_direct`` untouched: the
        ledger taps fire at decision granularity and are legal on the
        fused fast paths of both cores."""
        self.led = ledger if ledger is not None else NULL_LEDGER
        self._led = self.led.enabled
        self._led_track = False
        self._led_bytes = 0.0
        self._led_transfers = 0

    def _led_begin(self) -> None:
        """Open a decision cost scope: until :meth:`_led_end`, every
        emission funnel adds its bytes/transfers to the scope.  Scopes
        never nest (each tap site brackets exactly one decision)."""
        self._led_track = True
        self._led_bytes = 0.0
        self._led_transfers = 0

    def _led_end(self) -> tuple:
        """Close the cost scope; returns ``(cost_bytes, cost_transfers)``."""
        self._led_track = False
        return self._led_bytes, self._led_transfers

    def on_read_miss_direct(self, cycle: float, physical: int,
                            local_offset: int) -> float:
        """Direct-mode read miss: metadata transfers go straight to
        the channels; returns the decrypt-critical counter-fetch
        completion cycle (0.0 when the counter was on chip)."""
        self._cycle = cycle
        self._ctr_done = 0.0
        self._handle(cycle, physical, local_offset, is_write=False)
        return self._ctr_done

    def on_writeback_direct(self, cycle: float, physical: int,
                            local_offset: int) -> None:
        """Direct-mode write back (no critical transfer to report, and
        — victim cache off — nothing is ever displaced)."""
        self._cycle = cycle
        self._ctr_done = 0.0
        self._handle(cycle, physical, local_offset, is_write=True)

    def _handle(self, cycle: float, physical: int, local_offset: int, is_write: bool) -> MEEResult:
        # Direct mode emits past the result object (see _emit), so the
        # shared empty singleton serves every access without per-call
        # allocation; its lists are never mutated.
        result = self._empty_result if self._direct else MEEResult()
        if not self._is_secure:
            return result
        self._access_seq += 1
        if self._observe:
            self.caches.now = cycle

        bs = self._bs
        meta_addr = local_offset if self._local_metadata else physical
        block_id = meta_addr // bs
        if self._fused_split_block:
            # SplitCounterPolicy.access + BlockMACPolicy.access,
            # inlined statement for statement (neither reads the
            # region/chunk classification, so it is not computed).
            if is_write:
                if self.counters.record_write(block_id):
                    line = mlayout.counter_line(block_id)
                    if self._led:
                        self._led_begin()
                        self._reencrypt_line(result, line)
                        self.led.ctr_overflow(
                            cycle, self.partition_id, self.kernel_idx,
                            block_id, line, *self._led_end())
                    else:
                        self._reencrypt_line(result, line)
                self._ctr_access(result, block_id, is_write=True,
                                 fetch=True)
            else:
                self._ctr_access(result, block_id, is_write=False,
                                 fetch=True)
            self._blk_mac_access(result, block_id, is_write=is_write)
            return result
        region_id = local_offset // self._ro_region_size
        chunk_id = local_offset // self._chunk_size
        block_offset = (local_offset % self._chunk_size) // bs

        read_only = self._counter_access(
            result, cycle, block_id, region_id, is_write
        )
        self._mac_access(
            result, cycle, block_id, chunk_id, block_offset, region_id,
            read_only, is_write,
        )
        return result

    # ------------------------------------------------------------------------
    # Counter + BMT helpers (called by the counter policies)
    # ------------------------------------------------------------------------

    def _ctr_access(self, result: MEEResult, block_id: int, is_write: bool, fetch: bool) -> None:
        sector_id = block_id // self._ctr_cov
        line_key = sector_id // self._spb
        sector = sector_id % self._spb
        if self._fast_meta:
            # Resident-sector fast path, inlined from SectoredCache.
            # access: a hit emits no transfers, walks no BMT and (with
            # the observer off) has no other side effects.
            cache = self._ctr_cache
            lines = cache._sets[line_key % cache.num_sets]
            line = lines.get(line_key)
            bit = 1 << sector
            if line is not None and line.valid_mask & bit:
                cache.accesses += 1
                cache.hits += 1
                if is_write:
                    line.dirty_mask |= bit
                if next(reversed(lines)) is not line_key:
                    del lines[line_key]
                    lines[line_key] = line
                return
            if self._direct:
                self._meta_miss(cache, KIND_CTR, line_key, sector,
                                is_write, fetch)
                if fetch:
                    leaf = mlayout.bmt_leaf(block_id)
                    t, d = self.bmt.walk(
                        self.caches, leaf, is_write=is_write,
                        sectors_on_miss=self._meta_sectors_on_miss)
                    self._emit(result, t, d)
                return
        transfers, displaced, hit = self.caches.access(
            KIND_CTR, line_key, sector, is_write=is_write,
            fetch_on_miss=fetch, sectors_on_miss=self._meta_sectors_on_miss,
        )
        # Only a *read's* counter fetch blocks decryption; the write
        # path's read-modify-write fetch is off the critical path.
        self._emit(result, transfers, displaced,
                   critical_kind=None if is_write else KIND_CTR)
        if not hit and fetch:
            # Counter came from memory: its BMT path must be verified
            # (read) or will be re-hashed (write).
            leaf = mlayout.bmt_leaf(block_id)
            t, d = self.bmt.walk(self.caches, leaf, is_write=is_write,
                                 sectors_on_miss=self._meta_sectors_on_miss)
            self._emit(result, t, d)

    def _propagate_shared_counter(self, result: MEEResult, region_id: int) -> None:
        """Fig. 8: a write to a read-only region copies the shared
        counter into the region's major counters (in the counter cache,
        no fetch needed — the values are generated on chip) and folds
        the region back under the BMT."""
        region_size = self.scheme.detectors.readonly_region_size
        line_cov = mlayout.CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE
        first_block = (region_id * region_size) // constants.BLOCK_SIZE
        lines = max(1, region_size // line_cov)
        for i in range(lines):
            line_key = mlayout.counter_line(first_block) + i
            self.counters.set_major(line_key, self.shared_counter.value)
            base_block = line_key * mlayout.CTR_LINE_COVERAGE_BLOCKS
            for sector in range(constants.SECTORS_PER_BLOCK):
                transfers, displaced, _ = self.caches.access(
                    KIND_CTR, line_key, sector, is_write=True, fetch_on_miss=False,
                )
                self._emit(result, transfers, displaced)
            t, d = self.bmt.walk(self.caches, line_key, is_write=True,
                                 sectors_on_miss=self._meta_sectors_on_miss)
            self._emit(result, t, d)

    def _reencrypt_line(self, result: MEEResult, ctr_line: int) -> None:
        """Minor-counter overflow: re-encrypt the line's whole coverage
        (read + write every covered data block)."""
        size = mlayout.CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE
        self._emit_bulk(result, size, False, "ctr")
        self._emit_bulk(result, size, True, "ctr")

    # -- MAC cache helpers (called by the MAC policies) --------------------------

    def _blk_mac_access(
        self, result: MEEResult, block_id: int, is_write: bool,
        as_mispred: bool = False,
    ) -> None:
        sector_id = block_id // self._mac_sector_coverage
        line_key = sector_id // self._spb
        sector = sector_id % self._spb
        if self._fast_meta and self._mac_hit(line_key, sector, is_write):
            return
        if self._direct and not as_mispred:
            # MAC updates never read the old MAC (the new value is
            # computed from the data): write-allocate without fetch.
            self._meta_miss(self._mac_cache, KIND_MAC, line_key, sector,
                            is_write, not is_write)
            return
        # MAC updates never read the old MAC (the new value is computed
        # from the data): write-allocate without fetch.
        transfers, displaced, _ = self.caches.access(
            KIND_MAC, line_key, sector, is_write=is_write,
            fetch_on_miss=not is_write,
            sectors_on_miss=self._meta_sectors_on_miss,
        )
        self._emit(result, transfers, displaced,
                   mispred="mispred" if as_mispred else None)

    def _chunk_mac_access(
        self, result: MEEResult, chunk_id: int, is_write: bool,
        as_mispred: bool = False,
    ) -> None:
        sector_id = chunk_id // self._mac_sector_coverage
        line_key = mlayout.CHUNK_MAC_KEY_BASE + sector_id // self._spb
        sector = sector_id % self._spb
        if self._fast_meta and self._mac_hit(line_key, sector, is_write):
            return
        if self._direct and not as_mispred:
            self._meta_miss(self._mac_cache, KIND_MAC, line_key, sector,
                            is_write, not is_write)
            return
        transfers, displaced, _ = self.caches.access(
            KIND_MAC, line_key, sector, is_write=is_write,
            fetch_on_miss=not is_write,
            sectors_on_miss=self._meta_sectors_on_miss,
        )
        self._emit(result, transfers, displaced,
                   mispred="mispred" if as_mispred else None)

    def _meta_miss(self, cache, kind: str, line_key: int, sector: int,
                   is_write: bool, fetch: bool) -> None:
        """Direct-mode MDC miss, fused: :meth:`SectoredCache.access`'s
        miss branch, the whole-line fill and the fetch/eviction
        transfers collapse into one pass that occupies the channels
        immediately — statistics, masks, LRU motion, transfer order
        and timing identical to ``caches.access`` + ``_emit`` on the
        same state (victim cache off, so nothing is ever displaced
        and eviction valid-sector counts are never read)."""
        cache.accesses += 1
        lines = cache._sets[line_key % cache.num_sets]
        line = lines.get(line_key)
        bit = 1 << sector
        evict_key = 0
        evict_dirty = 0
        if line is None:
            if len(lines) >= cache.ways:
                victim_key = next(iter(lines))  # LRU = oldest insertion
                victim = lines.pop(victim_key)
                evict_dirty = _popcount(victim.dirty_mask)
                if evict_dirty:
                    cache.writebacks += evict_dirty
                evict_key = victim_key
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
        sector_size = constants.SECTOR_SIZE
        if fetch:
            # Demand fetch first, displaced dirty line second — the
            # order the object path appends its transfers.
            size = sector_size
            som = self._meta_sectors_on_miss
            if som > 1:
                size += (som - 1) * sector_size
                # SectoredCache.fill_all_sectors, inlined: the line is
                # resident and already MRU (the demand access above
                # just touched it), so only masks and stats move.
                full = cache._full_mask
                present = _popcount(line.valid_mask & full)
                spb = cache.sectors_per_block
                cache.accesses += spb
                cache.hits += present
                cache.sector_fills += spb - present
                line.valid_mask |= full
            self._occupy_meta(kind, line_key, size, False,
                              kind is KIND_CTR and not is_write)
        if evict_dirty:
            self._occupy_meta(kind, evict_key, evict_dirty * sector_size,
                              True, False)

    def _occupy_meta(self, kind: str, line_key: int, size: int,
                     is_write: bool, critical: bool) -> None:
        """Route one fused metadata transfer to its DRAM channel (the
        single-transfer core of :meth:`_emit_direct`)."""
        if self._led_track:
            self._led_bytes += size
            self._led_transfers += 1
        traffic = self._traffic
        if kind is KIND_CTR:
            addr = self.layout.counter_address(line_key)
            traffic.counter_bytes += size
        elif kind is KIND_MAC:
            addr = self.layout.mac_address(line_key)
            traffic.mac_bytes += size
        else:
            addr = self.layout.bmt_address(line_key)
            traffic.bmt_bytes += size
        partition = (self.partition_id if self._local_metadata
                     else self.mapper.partition_of(addr))
        channel = self._channels[partition]
        if channel.fifo_fast:
            # DRAMChannel.occupy, inlined (direct mode implies the
            # observer is detached, so no event can be owed).
            cycle = self._cycle
            start = channel._next_free
            if cycle > start:
                start = cycle
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
            done = channel.service(self._cycle, size, is_write, address=addr,
                                   kind=kind, critical=critical)
        if critical and done > self._ctr_done:
            self._ctr_done = done

    def _mac_hit(self, line_key: int, sector: int, is_write: bool) -> bool:
        """Resident-sector fast path on the MAC cache (see
        _ctr_access); True when the access was a hit and is done."""
        cache = self._mac_cache
        lines = cache._sets[line_key % cache.num_sets]
        line = lines.get(line_key)
        bit = 1 << sector
        if line is None or not line.valid_mask & bit:
            return False
        cache.accesses += 1
        cache.hits += 1
        if is_write:
            line.dirty_mask |= bit
        if next(reversed(lines)) is not line_key:
            del lines[line_key]
            lines[line_key] = line
        return True

    # ------------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------------

    def _emit(
        self,
        result: MEEResult,
        transfers: "Sequence[MetaTransfer]",
        displaced: "Sequence[DisplacedData]",
        critical_kind: Optional[str] = None,
        mispred: Optional[str] = None,
    ) -> None:
        if not transfers and not displaced:
            return
        if self._direct:
            # Victim cache off in direct mode: nothing is displaced.
            if transfers:
                self._emit_direct(transfers, critical_kind, mispred)
            return
        track = self._led_track
        for t in transfers:
            kind = mispred or t.kind
            critical = (
                critical_kind is not None
                and t.kind == critical_kind
                and not t.is_write
            )
            if track:
                self._led_bytes += t.size
                self._led_transfers += 1
            partition, address = self._route(t)
            result.requests.append(
                DRAMRequest(partition, t.size, t.is_write, kind, critical,
                            address=address)
            )
        result.displaced_data.extend(displaced)

    def _emit_bulk(self, result: MEEResult, size: int, is_write: bool,
                   kind: str) -> None:
        """Append one address-less bulk transfer on this partition's
        channel (re-encryptions, misprediction data re-fetches)."""
        if self._led_track:
            self._led_bytes += size
            self._led_transfers += 1
        if self._direct:
            channel = self._channels[self.partition_id]
            if channel.fifo_fast:
                channel.occupy(self._cycle, size, is_write)
            else:
                channel.service(self._cycle, size, is_write, address=-1,
                                kind=kind, critical=False)
            self._book_traffic(kind, size)
            return
        result.requests.append(
            DRAMRequest(self.partition_id, size, is_write, kind)
        )

    def _emit_direct(
        self,
        transfers: "Sequence[MetaTransfer]",
        critical_kind: Optional[str],
        mispred: Optional[str],
    ) -> None:
        """Direct mode: occupy each transfer's channel now — the same
        order, cycle and per-request arithmetic as
        :meth:`MemoryPipeline.schedule` consuming the equivalent
        request list, folded into one pass."""
        cycle = self._cycle
        channels = self._channels
        traffic = self._traffic
        layout = self.layout
        local = self._local_metadata
        pid = self.partition_id
        ctr_done = self._ctr_done
        track = self._led_track
        for t in transfers:
            tkind = t.kind
            if track:
                self._led_bytes += t.size
                self._led_transfers += 1
            if tkind == KIND_CTR:
                addr = layout.counter_address(t.line_key)
            elif tkind == KIND_MAC:
                addr = layout.mac_address(t.line_key)
            else:
                addr = layout.bmt_address(t.line_key)
            partition = pid if local else self.mapper.partition_of(addr)
            size = t.size
            is_write = t.is_write
            critical = (critical_kind is not None and tkind == critical_kind
                        and not is_write)
            kind = mispred or tkind
            channel = channels[partition]
            if channel.fifo_fast:
                done = channel.occupy(cycle, size, is_write)
            else:
                done = channel.service(cycle, size, is_write, address=addr,
                                       kind=kind, critical=critical)
            if kind == "ctr":
                traffic.counter_bytes += size
            elif kind == "mac":
                traffic.mac_bytes += size
            elif kind == "bmt":
                traffic.bmt_bytes += size
            else:
                self._book_traffic(kind, size)
            if critical and done > ctr_done:
                ctr_done = done
        self._ctr_done = ctr_done

    def _book_traffic(self, kind: str, size: int) -> None:
        """Traffic-counter dispatch for the uncommon kinds (the direct
        emitters inline ctr/mac/bmt; this mirrors
        ``MemoryPipeline.schedule``'s dispatch, registry fallback
        included)."""
        traffic = self._traffic
        if kind == "ctr":
            traffic.counter_bytes += size
        elif kind == "mac":
            traffic.mac_bytes += size
        elif kind == "bmt":
            traffic.bmt_bytes += size
        elif kind == "mispred":
            traffic.misprediction_bytes += size
        elif kind == "data":
            traffic.data_bytes += size
        else:
            from repro.sim.pipeline import TRAFFIC_KIND_COUNTERS
            counter_attr = TRAFFIC_KIND_COUNTERS.get(kind)
            if counter_attr is None:
                raise ValueError(
                    f"unregistered DRAM request kind {kind!r}; declare "
                    "it with repro.sim.pipeline.register_traffic_kind()"
                )
            setattr(traffic, counter_attr,
                    getattr(traffic, counter_attr) + size)

    def _route(self, transfer: MetaTransfer) -> tuple:
        """Which DRAM channel carries this metadata transfer, and at
        which carve-out address?

        Local metadata lives in its own partition's share; physically
        addressed metadata lives wherever the carve-out address maps.
        The address feeds address-aware DRAM schedulers either way.
        """
        if transfer.kind == KIND_CTR:
            addr = self.layout.counter_address(transfer.line_key)
        elif transfer.kind == KIND_MAC:
            addr = self.layout.mac_address(transfer.line_key)
        else:
            addr = self.layout.bmt_address(transfer.line_key)
        if self.scheme.local_metadata:
            return self.partition_id, addr
        return self.mapper.partition_of(addr), addr

    def flush(self) -> List[DRAMRequest]:
        """Context teardown: push all dirty metadata to DRAM."""
        requests = []
        for t in self.caches.flush():
            partition, address = self._route(t)
            requests.append(
                DRAMRequest(partition, t.size, True, t.kind, address=address)
            )
        return requests

    def flush_direct(self, cycle: float) -> float:
        """Direct-mode context teardown: dirty metadata drains straight
        to the channels — same kind/line order, occupy arithmetic and
        traffic accounting as :meth:`flush` fed through
        :meth:`MemoryPipeline.schedule`.  Returns the last completion
        cycle (0.0 when nothing was dirty)."""
        last = 0.0
        channels = self._channels
        traffic = self._traffic
        layout = self.layout
        local = self._local_metadata
        pid = self.partition_id
        sector_size = constants.SECTOR_SIZE
        for kind, cache in ((KIND_CTR, self.caches.counter),
                            (KIND_MAC, self.caches.mac),
                            (KIND_BMT, self.caches.bmt)):
            for ev in cache.flush():
                size = ev.dirty_sectors * sector_size
                if kind is KIND_CTR:
                    addr = layout.counter_address(ev.key)
                    traffic.counter_bytes += size
                elif kind is KIND_MAC:
                    addr = layout.mac_address(ev.key)
                    traffic.mac_bytes += size
                else:
                    addr = layout.bmt_address(ev.key)
                    traffic.bmt_bytes += size
                partition = pid if local else self.mapper.partition_of(addr)
                channel = channels[partition]
                if channel.fifo_fast:
                    done = channel.occupy(cycle, size, True)
                else:
                    done = channel.service(cycle, size, True, address=addr,
                                           kind=kind, critical=False)
                if done > last:
                    last = done
        return last

    # ------------------------------------------------------------------------
    # Prediction-accuracy accounting (Figs. 10 and 11)
    # ------------------------------------------------------------------------

    def _record_readonly_stat(self, region_id: int, predicted: bool) -> None:
        truth = self.truth.readonly_truth(self.partition_id, self.kernel_idx, region_id)
        if truth is None:
            return
        category = self.readonly.attribute(region_id, predicted, truth)
        self._bump(self.readonly_stats, category)

    def _record_streaming_stat(
        self, chunk_id: int, predicted: Pattern, region_id: int
    ) -> None:
        truth = self.truth.stream_truth(self.partition_id, chunk_id, self._access_seq)
        if truth is None:
            return
        read_only = self._ro_opt and self.readonly.predict(region_id)
        category = self.streaming.attribute(chunk_id, predicted, truth, read_only)
        self._bump(self.streaming_stats, category)

    @staticmethod
    def _bump(stats: PredictionStats, category: str) -> None:
        if category == "correct":
            stats.correct += 1
        elif category == "mp_init":
            stats.mp_init += 1
        elif category == "mp_aliasing":
            stats.mp_aliasing += 1
        else:
            setattr(stats, category, getattr(stats, category) + 1)
