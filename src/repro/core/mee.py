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

The MEE is a *traffic* model: each metadata transfer an access causes
is placed on its DRAM channel, and booked in the traffic counters, the
moment a policy emits it.  The functional encrypt/verify path lives in
:mod:`repro.core.functional`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import Pattern, PredictionStats
from repro.core.policies import build_policies
from repro.core.readonly import ReadOnlyDetector
from repro.core.streaming import StreamingDetector
from repro.metadata import layout as mlayout
from repro.metadata.caches import KIND_CTR, KIND_MAC, MetadataCaches
from repro.metadata.counters import CommonCounterTable, CounterFile, SharedCounter
from repro.obs.decisions import NULL_LEDGER
from repro.obs.observer import NULL_OBSERVER


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
        # taps at decision granularity only and does not flip _observe.
        self.led = ledger if ledger is not None else NULL_LEDGER
        self._led = self.led.enabled
        # Cost scope (see _led_begin/_led_end): while _led_track is
        # set, _place accumulates the bytes/transfers it books, so a
        # decision's remedial traffic is charged to it.
        self._led_track = False
        self._led_bytes = 0.0
        self._led_transfers = 0

        self.caches = MetadataCaches(
            config.mdc, partition_id, self._place_meta,
            sectors_on_miss=1 if self.scheme.sectored_counters else 4,
            observer=observer)
        self._meta_access = self.caches.access
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
        self._is_secure = self.scheme.is_secure
        self._local_metadata = self.scheme.local_metadata
        self._ro_region_size = self.scheme.detectors.readonly_region_size
        self._chunk_size = self.scheme.detectors.stream_chunk_size
        if constants.SECTOR_SIZE % self.scheme.mac_size:
            raise ValueError("mac_size must divide the sector size")
        #: Data blocks covered by one 32 B MAC sector (4 with the 8 B
        #: default, 8 with PSSM's 4 B truncation).
        self._mac_sector_coverage = constants.SECTOR_SIZE // self.scheme.mac_size
        self._spb = constants.SECTORS_PER_BLOCK
        self._bs = constants.BLOCK_SIZE
        self._ctr_cov = mlayout.CTR_SECTOR_COVERAGE_BLOCKS
        self._ro_opt = self.scheme.readonly_optimization
        # Bound policy entry points (the policies are fixed at
        # construction; binding skips two attribute chases per access).
        self._counter_access = self.counter_policy.access
        self._mac_access = self.mac_policy.access
        # Emission (see _place): the DRAM channels and traffic counters
        # every transfer lands in, wired by :meth:`attach_channels`, and
        # the current walk's cycle and decrypt-critical completion.
        self._channels: list = []
        self._traffic = None
        self._cycle = 0.0
        self._ctr_done = 0.0
        #: Dirty data lines the last walk's victim insertions displaced
        #: from the L2 (the caches' list); the pipeline writes them back
        #: after the walk.
        self.displaced = self.caches.displaced
        # Observed runs: the walk's placed transfers, reported to the
        # observer when the walk returns (see _report).
        self._placed: list = []

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

    def on_read_miss(self, cycle: float, physical: int,
                     local_offset: int) -> float:
        """An L2 miss fill of one data line (or sector thereof).
        Returns the completion cycle of the decrypt-critical counter
        fetch (0.0 when the counter was on chip)."""
        self._handle(cycle, physical, local_offset, is_write=False)
        return self._ctr_done

    def on_writeback(self, cycle: float, physical: int,
                     local_offset: int) -> None:
        """A dirty L2 line written back to DRAM."""
        self._handle(cycle, physical, local_offset, is_write=True)

    def attach_channels(self, channels: list, traffic) -> None:
        """Wire the DRAM channels (indexed by partition) that metadata
        transfers are placed on and the :class:`TrafficCounters` they
        are booked in (pipeline wiring)."""
        self._channels = channels
        self._traffic = traffic

    def _led_begin(self) -> None:
        """Open a decision cost scope: until :meth:`_led_end`, every
        transfer placed adds its bytes to the scope.  Scopes never nest
        (each tap site brackets exactly one decision)."""
        self._led_track = True
        self._led_bytes = 0.0
        self._led_transfers = 0

    def _led_end(self) -> tuple:
        """Close the cost scope; returns ``(cost_bytes, cost_transfers)``."""
        self._led_track = False
        return self._led_bytes, self._led_transfers

    def _handle(self, cycle: float, physical: int, local_offset: int,
                is_write: bool) -> None:
        self._cycle = cycle
        self._ctr_done = 0.0
        if not self._is_secure:
            return
        self._access_seq += 1
        if self._observe:
            self.caches.now = cycle

        bs = self._bs
        meta_addr = local_offset if self._local_metadata else physical
        block_id = meta_addr // bs
        region_id = local_offset // self._ro_region_size
        chunk_id = local_offset // self._chunk_size
        block_offset = (local_offset % self._chunk_size) // bs

        read_only = self._counter_access(
            cycle, block_id, region_id, is_write
        )
        self._mac_access(
            cycle, block_id, chunk_id, block_offset, region_id,
            read_only, is_write,
        )
        if self._observe:
            self._report(cycle)

    # ------------------------------------------------------------------------
    # Counter + BMT helpers (called by the counter policies)
    # ------------------------------------------------------------------------

    def _ctr_access(self, block_id: int, is_write: bool, fetch: bool) -> None:
        sector_id = block_id // self._ctr_cov
        hit = self._meta_access(KIND_CTR, sector_id // self._spb,
                                sector_id % self._spb, is_write, fetch)
        if fetch and not hit:
            # Counter came from memory: its BMT path must be verified
            # (read) or will be re-hashed (write).
            self.bmt.walk(self.caches, mlayout.bmt_leaf(block_id), is_write)

    def _propagate_shared_counter(self, region_id: int) -> None:
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
            for sector in range(constants.SECTORS_PER_BLOCK):
                self._meta_access(KIND_CTR, line_key, sector, True, False)
            self.bmt.walk(self.caches, line_key, True)

    def _reencrypt_line(self, ctr_line: int) -> None:
        """Minor-counter overflow: re-encrypt the line's whole coverage
        (read + write every covered data block)."""
        size = mlayout.CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE
        self._emit_bulk(size, False, "ctr")
        self._emit_bulk(size, True, "ctr")

    # -- MAC cache helpers (called by the MAC policies) --------------------------
    # MAC updates never read the old MAC (the new value is computed from
    # the data): a write allocates without a fetch.

    def _blk_mac_access(self, block_id: int, is_write: bool,
                        as_mispred: bool = False) -> None:
        sector_id = block_id // self._mac_sector_coverage
        self._meta_access(KIND_MAC, sector_id // self._spb,
                          sector_id % self._spb, is_write, not is_write,
                          "mispred" if as_mispred else None)

    def _chunk_mac_access(self, chunk_id: int, is_write: bool,
                          as_mispred: bool = False) -> None:
        sector_id = chunk_id // self._mac_sector_coverage
        self._meta_access(KIND_MAC,
                          mlayout.CHUNK_MAC_KEY_BASE + sector_id // self._spb,
                          sector_id % self._spb, is_write, not is_write,
                          "mispred" if as_mispred else None)

    # ------------------------------------------------------------------------
    # Emission: every transfer is placed on its channel when emitted
    # ------------------------------------------------------------------------

    def _emit_bulk(self, size: int, is_write: bool, kind: str) -> None:
        """One address-less bulk transfer on this partition's channel
        (re-encryptions, misprediction data re-fetches)."""
        self._place(self.partition_id, -1, size, is_write, kind, False)

    def _place_meta(self, kind: str, line_key, size: int, is_write: bool,
                    critical: bool, booked: Optional[str] = None) -> float:
        """Place one metadata transfer at its carve-out address.  Local
        metadata lives in its own partition's share; physically
        addressed metadata lives wherever the carve-out address maps.
        ``booked`` overrides the traffic class (misprediction
        re-fetches).  Returns the completion cycle."""
        layout = self.layout
        if kind == KIND_CTR:
            address = layout.counter_address(line_key)
        elif kind == KIND_MAC:
            address = layout.mac_address(line_key)
        else:
            address = layout.bmt_address(line_key)
        partition = (self.partition_id if self._local_metadata
                     else self.mapper.partition_of(address))
        return self._place(partition, address, size, is_write,
                           booked or kind, critical)

    def _place(self, partition: int, address: int, size: int,
               is_write: bool, kind: str, critical: bool) -> float:
        """The MEE's one emission funnel: book one transfer in the
        traffic counters, occupy its channel at the walk's cycle,
        charge any open ledger cost scope and track the walk's
        decrypt-critical completion.  Returns the completion cycle.
        ``address`` feeds address-aware DRAM schedulers (-1: none)."""
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
            # Booking an unknown kind under any counter would corrupt
            # every overhead ratio built from the traffic breakdown.
            raise ValueError(
                f"unknown DRAM transfer kind {kind!r}; expected one of "
                "data, ctr, mac, bmt, mispred"
            )
        if self._led_track:
            self._led_bytes += size
            self._led_transfers += 1
        cycle = self._cycle
        channel = self._channels[partition]
        if channel.fifo_fast:
            # DRAMChannel.occupy, inlined (fifo_fast is off on observed
            # channels, so no dram event can be owed).
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
            done = channel.service(cycle, size, is_write, address=address,
                                   kind=kind, critical=critical)
        if critical and done > self._ctr_done:
            self._ctr_done = done
        if self._observe:
            self._placed.append((partition, kind, size, is_write, done,
                                 critical))
        return done

    def _report(self, cycle: float) -> None:
        """Observed runs: report the walk's placed transfers — a
        ``traffic`` and an ``mee_op`` each, in emission order — once
        the walk has returned, so they follow its MDC, victim and
        verdict events in the trace."""
        obs = self.obs
        for partition, kind, size, is_write, done, critical in self._placed:
            obs.traffic(cycle, partition, kind, size, is_write)
            obs.mee_op(partition, kind, is_write, cycle, done,
                       critical=critical)
        self._placed.clear()

    def flush(self, cycle: float = 0.0) -> float:
        """Context teardown: drain all dirty metadata to DRAM at
        ``cycle``.  Returns the last completion cycle (0.0 when nothing
        was dirty)."""
        self._cycle = cycle
        last = 0.0
        for kind, line_key, size in self.caches.flush():
            done = self._place_meta(kind, line_key, size, True, False)
            if done > last:
                last = done
        if self._observe:
            self._report(cycle)
        return last

    # The direct-emission names of the entry points, kept as aliases
    # because perfbench/spans.py wraps them by name.
    on_read_miss_direct = on_read_miss
    on_writeback_direct = on_writeback
    flush_direct = flush

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
