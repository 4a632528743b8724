"""Security-metadata layer: layout, counter state, MDCs, BMT walker."""

from repro.metadata.bmt import BMTWalker
from repro.metadata.caches import (
    KIND_BMT,
    KIND_CTR,
    KIND_MAC,
    DisplacedData,
    MetadataCaches,
)
from repro.metadata.counters import (
    MINOR_OVERFLOW,
    CommonCounterTable,
    CounterFile,
    SharedCounter,
)
from repro.metadata.layout import (
    CHUNK_MAC_KEY_BASE,
    CTR_LINE_COVERAGE_BLOCKS,
    CTR_SECTOR_COVERAGE_BLOCKS,
    MAC_LINE_COVERAGE_BLOCKS,
    MAC_SECTOR_COVERAGE_BLOCKS,
    MetadataLayout,
    SectorRef,
    bmt_leaf,
    bmt_levels,
    chunk_mac_sector,
    counter_line,
    counter_sector,
    mac_sector,
)

__all__ = [
    "BMTWalker",
    "KIND_BMT",
    "KIND_CTR",
    "KIND_MAC",
    "DisplacedData",
    "MetadataCaches",
    "MINOR_OVERFLOW",
    "CommonCounterTable",
    "CounterFile",
    "SharedCounter",
    "CHUNK_MAC_KEY_BASE",
    "CTR_LINE_COVERAGE_BLOCKS",
    "CTR_SECTOR_COVERAGE_BLOCKS",
    "MAC_LINE_COVERAGE_BLOCKS",
    "MAC_SECTOR_COVERAGE_BLOCKS",
    "MetadataLayout",
    "SectorRef",
    "bmt_leaf",
    "bmt_levels",
    "chunk_mac_sector",
    "counter_line",
    "counter_sector",
    "mac_sector",
]
