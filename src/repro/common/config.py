"""Configuration dataclasses for the GPU, metadata caches and schemes.

Defaults reproduce the paper's baseline (Tables V, VI and IX).  Every
knob the evaluation sweeps — predictor sizes, MAT count, MAC
granularities, victim-cache threshold — is a field here so experiments
are pure data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common import constants
from repro.common.types import Scheme


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a sectored, set-associative cache."""

    size_bytes: int
    block_size: int = constants.BLOCK_SIZE
    ways: int = constants.MDC_WAYS
    sector_size: int = constants.SECTOR_SIZE
    mshr_entries: int = constants.MDC_MSHRS
    #: Requests an MSHR entry can merge before stalling new ones.
    mshr_merge: int = 16
    write_allocate: bool = True

    def __post_init__(self) -> None:
        for name in ("ways", "mshr_entries", "mshr_merge"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        # The MEE and the L2 index sectors by the fixed line geometry.
        for name, fixed in (("block_size", constants.BLOCK_SIZE),
                            ("sector_size", constants.SECTOR_SIZE)):
            value = getattr(self, name)
            if value != fixed:
                raise ValueError(f"{name} must be {fixed}, got {value!r}")
        one_set = self.ways * self.block_size
        if self.size_bytes < one_set:
            raise ValueError(
                f"size_bytes must hold one set of ways lines ({one_set} B), "
                f"got {self.size_bytes!r}")

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return max(1, self.num_blocks // self.ways)

    @property
    def sectors_per_block(self) -> int:
        return self.block_size // self.sector_size


@dataclass(frozen=True)
class MDCConfig:
    """Metadata cache organisation (Table VI): one each for counters,
    MACs and BMT nodes, per memory partition."""

    counter: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=constants.MDC_SIZE)
    )
    mac: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=constants.MDC_SIZE)
    )
    bmt: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=constants.MDC_SIZE)
    )


@dataclass(frozen=True)
class DetectorConfig:
    """Sizing of the read-only and streaming detectors (Table IX)."""

    readonly_entries: int = constants.READONLY_PREDICTOR_ENTRIES
    readonly_region_size: int = constants.READONLY_REGION_SIZE
    stream_entries: int = constants.STREAM_PREDICTOR_ENTRIES
    stream_chunk_size: int = constants.STREAM_CHUNK_SIZE
    num_trackers: int = constants.NUM_ACCESS_TRACKERS
    monitor_accesses: int = constants.MAT_MONITOR_ACCESSES
    timeout_cycles: int = constants.MAT_TIMEOUT_CYCLES
    #: ``SHM_upper_bound``: no capacity limits, oracle-initialised.
    unlimited: bool = False

    def __post_init__(self) -> None:
        block = constants.BLOCK_SIZE
        for name in ("readonly_region_size", "stream_chunk_size"):
            value = getattr(self, name)
            if value < block or value % block:
                raise ValueError(
                    f"{name} must be a positive multiple of the {block} B "
                    f"block, got {value!r}")
        for name in ("readonly_entries", "stream_entries"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(
                    f"{name} must be a power of two, got {value!r}")
        for name in ("monitor_accesses", "timeout_cycles"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        if self.num_trackers < 0:
            raise ValueError(
                f"num_trackers must be at least 0, got {self.num_trackers!r}")

    @property
    def blocks_per_chunk(self) -> int:
        return self.stream_chunk_size // constants.BLOCK_SIZE

    def tracker_storage_bits(self) -> int:
        """Bits per memory access tracker.

        20-bit chunk tag + 1-bit write flag + 32 1-bit access counters
        + 5-bit access counter + 13-bit timeout counter = 71 bits
        (Section V-A).
        """
        tag_bits = 20
        write_flag = 1
        counters = self.blocks_per_chunk
        access_counter = 5
        timeout_counter = 13
        return tag_bits + write_flag + counters + access_counter + timeout_counter

    def partition_storage_bits(self) -> int:
        """Total predictor+tracker storage per memory partition."""
        return (
            self.readonly_entries
            + self.stream_entries
            + self.num_trackers * self.tracker_storage_bits()
        )


@dataclass(frozen=True)
class GPUConfig:
    """Baseline GPU (Table V) plus DRAM timing."""

    num_sms: int = 30
    num_partitions: int = constants.NUM_PARTITIONS
    l2_banks_per_partition: int = constants.L2_BANKS_PER_PARTITION
    l2_bank_size: int = constants.L2_BANK_SIZE
    l2_ways: int = 16
    l2_mshr_entries: int = 192
    l2_mshr_merge: int = 16
    dram_bytes_per_cycle: float = constants.DRAM_BYTES_PER_CYCLE
    dram_latency: int = constants.DRAM_LATENCY
    #: Fixed per-request channel occupancy (row activation, command
    #: bus); penalises many small transfers over few large ones.
    dram_request_overhead: float = 8.0
    #: Extra occupancy when the bus switches between reads and writes.
    dram_turnaround: float = 12.0
    #: Channel service discipline, by :data:`repro.memory.sched.
    #: SCHEDULERS` name: "fifo" (the calibrated baseline),
    #: "critical_first" (defer MAC/BMT writes behind demand traffic)
    #: or "banked" (per-bank open-row model) — sweepable per cell.
    dram_scheduler: str = "fifo"
    #: Banks per channel ("banked" scheduler).
    dram_num_banks: int = 16
    #: Row-buffer size in bytes ("banked" scheduler).
    dram_row_bytes: int = 2048
    #: Extra occupancy of a row miss ("banked" scheduler).
    dram_row_miss_penalty: float = 20.0
    #: Deferred-write buffer entries ("critical_first" scheduler).
    dram_write_buffer: int = 16
    hash_latency: int = constants.HASH_LATENCY
    #: Maximum outstanding off-chip requests the SM frontend sustains
    #: (aggregate memory-level parallelism across all SMs; 24 L2 banks
    #: x 192 MSHRs with merging supports thousands in flight).
    max_inflight_requests: int = 3072
    interleave_bytes: int = 256

    def __post_init__(self) -> None:
        for name in ("num_partitions", "l2_banks_per_partition", "l2_ways",
                     "l2_mshr_entries", "l2_mshr_merge"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        one_set = self.l2_ways * constants.BLOCK_SIZE
        if self.l2_bank_size < one_set:
            raise ValueError(
                f"l2_bank_size must hold one set of l2_ways lines "
                f"({one_set} B), got {self.l2_bank_size!r}")
        interleave = self.interleave_bytes
        if interleave < constants.BLOCK_SIZE or interleave & (interleave - 1):
            raise ValueError(
                f"interleave_bytes must be a power of two of at least "
                f"{constants.BLOCK_SIZE}, got {interleave!r}")
        banks = self.num_partitions * self.l2_banks_per_partition
        if banks > constants.MAX_L2_BANKS:
            raise ValueError(
                f"num_partitions x l2_banks_per_partition must be at most "
                f"{constants.MAX_L2_BANKS} L2 banks, got {banks}")

    @property
    def total_l2_bytes(self) -> int:
        return self.num_partitions * self.l2_banks_per_partition * self.l2_bank_size


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one secure-memory design under evaluation.

    The feature flags decompose Table VIII's designs, so every scheme is
    a particular combination of: metadata address construction (local
    vs physical), sectored counter organisation, common counters,
    read-only/shared-counter optimisation, dual-granularity MACs and
    the L2 victim cache.
    """

    scheme: Scheme = Scheme.SHM
    #: Registry name of this composition.  Paper designs carry their
    #: enum value; a custom registration (see
    #: :func:`repro.core.policies.registry.register_scheme`) carries
    #: its registered name while ``scheme`` holds the base design it
    #: rides on.  Empty when constructed directly.
    name: str = ""
    #: Construct metadata from partition-local addresses (PSSM) rather
    #: than physical addresses (Naive / Common_ctr).
    local_metadata: bool = True
    #: Pack counters so one fetch covers sectored accesses (PSSM).
    sectored_counters: bool = True
    #: Common-counter compression of encryption counters [17].
    common_counters: bool = False
    #: Shared counter + BMT exclusion for read-only regions (this paper).
    readonly_optimization: bool = False
    #: Dual-granularity MACs with the streaming detector (this paper).
    dual_granularity_mac: bool = False
    #: Use the L2 as a victim cache for metadata when it thrashes.
    l2_victim_cache: bool = False
    #: Unlimited, profile-initialised detectors (SHM_upper_bound).
    oracle_detectors: bool = False
    #: MAC bytes per cache line (8 default; 4 = PSSM truncation).
    mac_size: int = constants.MAC_SIZE
    #: Victim-cache enable threshold on the sampled L2 miss rate.
    victim_missrate_threshold: float = 0.90
    #: Remedy for dual-granularity MAC aliasing conflicts: "recheck"
    #: (check the other MAC on failure — the paper's choice) or
    #: "update_both" (always maintain both MACs).
    mac_conflict_policy: str = "recheck"
    #: Integrity-tree implementation: "bmt" (arity-16, lazy writes —
    #: the paper's evaluation) or "counter_tree" (SGX-style arity-8,
    #: eager write path).  The adaptive schemes work with either.
    integrity_tree: str = "bmt"
    #: Learned policy layer (:mod:`repro.core.policies.learned`): ""
    #: (the paper's fixed heuristics), "logit" (online logistic
    #: regression over the decision ledger's feature vectors) or
    #: "bandit" (per-region epsilon-greedy arm selection over
    #: protection compositions).  Requires ``readonly_optimization``
    #: and ``dual_granularity_mac`` — the learned layer drives the
    #: adaptive machinery, it does not add new machinery.
    learned_policy: str = ""
    detectors: DetectorConfig = field(default_factory=DetectorConfig)

    @property
    def is_secure(self) -> bool:
        return self.scheme is not Scheme.UNPROTECTED

    @property
    def label(self) -> str:
        """Presentation name: the registry name when set, else the
        base design's Table VIII value."""
        return self.name or self.scheme.value


def scheme_config(scheme, **overrides) -> SchemeConfig:
    """Build the canonical :class:`SchemeConfig` for a registered
    design.

    ``scheme`` is a :class:`Scheme` member (the Table VIII designs) or
    a registry name string — including custom compositions added via
    :func:`repro.core.policies.registry.register_scheme`.  The flag
    table itself lives in the scheme registry; this shim keeps the
    historical ``common``-layer entry point (the import is deferred to
    avoid a ``common`` -> ``core`` module cycle).
    """
    from repro.core.policies.registry import build_scheme_config

    return build_scheme_config(scheme, **overrides)


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run needs."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    mdc: MDCConfig = field(default_factory=MDCConfig)
    scheme: SchemeConfig = field(default_factory=lambda: scheme_config(Scheme.SHM))

    def with_scheme(self, scheme, **overrides) -> "SimConfig":
        """``scheme`` accepts a :class:`Scheme` or a registry name."""
        return replace(self, scheme=scheme_config(scheme, **overrides))
