"""Security-metadata geometry: where counters, MACs and BMT nodes live.

All metadata is stored in a carve-out of device memory above the
protected 4 GB range.  Identifiers can be derived either from
*partition-local* addresses (PSSM and all SHM variants — metadata for a
partition's data lives in the same partition, no cross-partition
redundancy) or from *physical* addresses (Naive / Common_ctr — the same
metadata line covers data striped across partitions, so several
partitions fetch private copies of it).

Geometry (with 128 B lines and 32 B sectors):

====================  =====================  ======================
metadata              one 128 B line covers   one 32 B sector covers
====================  =====================  ======================
split counters        16 KB data (128 blks)   4 KB data (32 blks)
block MACs            2 KB data (16 blks)     512 B data (4 blks)
chunk MACs            64 KB data (16 chunks)  16 KB data (4 chunks)
BMT level-k nodes     16 children             4 children
====================  =====================  ======================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Tuple

from repro.common import constants

#: Data blocks whose counters share one 128 B counter line.
CTR_LINE_COVERAGE_BLOCKS = 128
#: Data blocks whose counters share one 32 B counter sector.
CTR_SECTOR_COVERAGE_BLOCKS = CTR_LINE_COVERAGE_BLOCKS // constants.SECTORS_PER_BLOCK

#: Data blocks whose MACs share one 128 B MAC line / 32 B sector.
MAC_LINE_COVERAGE_BLOCKS = constants.MACS_PER_BLOCK
MAC_SECTOR_COVERAGE_BLOCKS = MAC_LINE_COVERAGE_BLOCKS // constants.SECTORS_PER_BLOCK

#: 4 KB chunks whose chunk-MACs share one 128 B line / 32 B sector.
CMAC_LINE_COVERAGE_CHUNKS = constants.MACS_PER_BLOCK
CMAC_SECTOR_COVERAGE_CHUNKS = CMAC_LINE_COVERAGE_CHUNKS // constants.SECTORS_PER_BLOCK

#: Key-space offset separating chunk-MAC lines from block-MAC lines
#: inside the shared MAC cache.
CHUNK_MAC_KEY_BASE = 1 << 40

#: Key-space stride separating BMT levels inside the BMT cache.
BMT_LEVEL_KEY_BASE = 1 << 40


@dataclass(frozen=True)
class SectorRef:
    """One 32 B metadata sector: a cache key plus sector index."""

    line_key: int
    sector: int


@lru_cache(maxsize=None)
def counter_sector(block_id: int) -> SectorRef:
    """Counter sector protecting data block ``block_id``.

    Memoized (as are the other sector-geometry functions): the mapping
    is pure, the same blocks recur constantly on the per-miss hot
    path, and memoization also avoids re-allocating the frozen
    :class:`SectorRef` every call.
    """
    sector_id = block_id // CTR_SECTOR_COVERAGE_BLOCKS
    return SectorRef(sector_id // constants.SECTORS_PER_BLOCK,
                     sector_id % constants.SECTORS_PER_BLOCK)


def counter_line(block_id: int) -> int:
    return block_id // CTR_LINE_COVERAGE_BLOCKS


@lru_cache(maxsize=None)
def mac_sector(block_id: int, mac_size: int = constants.MAC_SIZE) -> SectorRef:
    """Block-MAC sector holding data block ``block_id``'s MAC.

    ``mac_size`` supports PSSM's truncation study: a 4 B MAC packs
    twice as many MACs per sector, halving MAC traffic — at the cost
    of falling below the Section III-C birthday bound (see
    :func:`repro.crypto.mac.minimum_mac_bits`).
    """
    per_sector = constants.SECTOR_SIZE // mac_size
    sector_id = block_id // per_sector
    return SectorRef(sector_id // constants.SECTORS_PER_BLOCK,
                     sector_id % constants.SECTORS_PER_BLOCK)


@lru_cache(maxsize=None)
def chunk_mac_sector(chunk_id: int, mac_size: int = constants.MAC_SIZE) -> SectorRef:
    """Chunk-MAC sector holding 4 KB chunk ``chunk_id``'s MAC.

    The returned key is offset into the chunk-MAC key space so chunk
    MACs and block MACs never collide inside the shared MAC cache.
    """
    per_sector = constants.SECTOR_SIZE // mac_size
    sector_id = chunk_id // per_sector
    return SectorRef(
        CHUNK_MAC_KEY_BASE + sector_id // constants.SECTORS_PER_BLOCK,
        sector_id % constants.SECTORS_PER_BLOCK,
    )


def bmt_leaf(block_id: int) -> int:
    """BMT leaf index covering data block ``block_id``.

    The BMT covers encryption counters, one leaf per counter line.
    """
    return counter_line(block_id)


@lru_cache(maxsize=None)
def bmt_node_sector(level: int, node_id: int) -> SectorRef:
    """Cache sector of BMT node ``node_id`` at tree ``level`` (1-based:
    level 1 is the parents of the leaves)."""
    sector_id = node_id // (constants.SECTORS_PER_BLOCK)
    return SectorRef(
        level * BMT_LEVEL_KEY_BASE + sector_id // constants.SECTORS_PER_BLOCK,
        sector_id % constants.SECTORS_PER_BLOCK,
    )


def bmt_levels(protected_bytes: int, arity: int = constants.BMT_ARITY) -> int:
    """Number of tree levels above the leaves (one per counter line)
    for a protected range, at the given tree arity."""
    leaves = max(1, protected_bytes // (CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE))
    levels = 0
    span = leaves
    while span > 1:
        span = (span + arity - 1) // arity
        levels += 1
    return max(1, levels)


@dataclass(frozen=True)
class MetadataLayout:
    """DRAM placement of the metadata carve-out (physical routing).

    Only physically-addressed schemes need real metadata addresses —
    to decide which partition's DRAM channel a metadata transfer
    occupies.  Local schemes route metadata to the owning partition.
    """

    protected_bytes: int = constants.PROTECTED_MEMORY_BYTES
    # The carve-out bases and the BMT level offsets, computed once per
    # layout: every metadata placement reads them, so the address
    # methods below are plain arithmetic.
    counter_base: int = field(init=False, repr=False, compare=False)
    mac_base: int = field(init=False, repr=False, compare=False)
    chunk_mac_base: int = field(init=False, repr=False, compare=False)
    bmt_base: int = field(init=False, repr=False, compare=False)
    #: First line of each BMT level (index = level) past the BMT base,
    #: up to the first level whose span no longer shrinks ...
    _bmt_level_lines: Tuple[int, ...] = field(init=False, repr=False,
                                              compare=False)
    #: ... and the lines each level above those occupies.
    _bmt_tail_lines: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        define = partial(object.__setattr__, self)
        define("counter_base", self.protected_bytes)
        define("mac_base", self.counter_base + self.counter_space)
        define("chunk_mac_base", self.mac_base + self.mac_space)
        define("bmt_base", self.chunk_mac_base + self.chunk_mac_space)
        # Levels are packed consecutively; spans shrink by the arity
        # per level, so a level starts past the cumulative span of the
        # levels below it (level 1, the leaves' parents, starts at 0).
        leaves = self.protected_bytes // (CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE)
        span = (leaves + constants.BMT_ARITY - 1) // constants.BMT_ARITY
        starts = [0, 0]
        while True:
            starts.append(starts[-1] + span + constants.SECTORS_PER_BLOCK - 1)
            above = (span + constants.BMT_ARITY - 1) // constants.BMT_ARITY
            if above == span:
                break
            span = above
        define("_bmt_level_lines", tuple(starts))
        define("_bmt_tail_lines", span + constants.SECTORS_PER_BLOCK - 1)

    @property
    def counter_space(self) -> int:
        lines = self.protected_bytes // (CTR_LINE_COVERAGE_BLOCKS * constants.BLOCK_SIZE)
        return lines * constants.BLOCK_SIZE

    @property
    def mac_space(self) -> int:
        return (self.protected_bytes // constants.BLOCK_SIZE) * constants.MAC_SIZE

    @property
    def chunk_mac_space(self) -> int:
        return (self.protected_bytes // constants.STREAM_CHUNK_SIZE) * constants.MAC_SIZE

    def counter_address(self, line_key: int) -> int:
        return self.counter_base + line_key * constants.BLOCK_SIZE

    def mac_address(self, line_key: int) -> int:
        if line_key >= CHUNK_MAC_KEY_BASE:
            return self.chunk_mac_base + (line_key - CHUNK_MAC_KEY_BASE) * constants.BLOCK_SIZE
        return self.mac_base + line_key * constants.BLOCK_SIZE

    def bmt_address(self, line_key: int) -> int:
        level, line = divmod(line_key, BMT_LEVEL_KEY_BASE)
        starts = self._bmt_level_lines
        if level < len(starts):
            start = starts[level]
        else:
            start = starts[-1] + (level - len(starts) + 1) * self._bmt_tail_lines
        return self.bmt_base + (start + line) * constants.BLOCK_SIZE
