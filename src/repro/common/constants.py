"""Architectural constants shared across the simulator.

Values follow the paper's baseline configuration (Tables V, VI and IX):
a Turing-like GPU with 12 GDDR memory partitions, 128 B cache lines
broken into 32 B sectors, 4 KB streaming chunks and 16 KB read-only
regions.
"""

# --- Data / cache geometry -------------------------------------------------

#: Cache line (memory block) size in bytes. MACs and counters are
#: maintained at this granularity.
BLOCK_SIZE = 128

#: Sector size in bytes. The L2 and the metadata caches are sectored:
#: a miss fetches one sector, not the whole line (PSSM's sectored design).
SECTOR_SIZE = 32

#: Sectors per cache line.
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE

# --- Security metadata geometry -------------------------------------------

#: MAC size in bytes (8 B per cache line; the paper's default).
MAC_SIZE = 8

#: Truncated MAC size used by PSSM's optional truncation (see the
#: birthday-attack discussion in Section III-C of the paper).
TRUNCATED_MAC_SIZE = 4

#: Number of block MACs packed into one metadata cache line.
MACS_PER_BLOCK = BLOCK_SIZE // MAC_SIZE

#: Split-counter layout: one 64-bit major counter plus 64 7-bit minor
#: counters packed per 128 B counter block (classic split-counter
#: organisation).  Each counter block therefore covers 64 data blocks
#: = 8 KB of data.
MAJOR_COUNTER_BITS = 64
MINOR_COUNTER_BITS = 7
BLOCKS_PER_COUNTER_BLOCK = 64
COUNTER_BLOCK_COVERAGE = BLOCKS_PER_COUNTER_BLOCK * BLOCK_SIZE

# --- Detector geometry (Table IX) ------------------------------------------

#: Read-only predictor granularity: 16 KB regions.
READONLY_REGION_SIZE = 16 * 1024

#: Read-only predictor entries per memory partition.
READONLY_PREDICTOR_ENTRIES = 1024

#: Streaming predictor granularity: 4 KB chunks.
STREAM_CHUNK_SIZE = 4 * 1024

#: Streaming predictor entries per memory partition.
STREAM_PREDICTOR_ENTRIES = 2048

#: Cache blocks per streaming chunk (4 KB / 128 B).
BLOCKS_PER_CHUNK = STREAM_CHUNK_SIZE // BLOCK_SIZE

#: Memory access trackers (MATs) per memory partition.
NUM_ACCESS_TRACKERS = 8

#: Accesses observed before a MAT declares a verdict (K in the paper).
MAT_MONITOR_ACCESSES = 32

#: MAT timeout in cycles: a random chunk must not pin a tracker forever.
MAT_TIMEOUT_CYCLES = 6000

# --- Memory system (Table V) -----------------------------------------------

#: Number of GDDR memory partitions.
NUM_PARTITIONS = 12

#: L2 banks per memory partition.
L2_BANKS_PER_PARTITION = 2

#: L2 bank capacity in bytes (128 KB per bank, 3 MB total).
L2_BANK_SIZE = 128 * 1024

#: Route codes per L2 bank (see :class:`repro.memory.l2.ResolvedL2`): a
#: read or a write, whose clamped sector range ``[first, last)`` starts
#: at one of the line's sectors and ends at or before its end.
L2_ROUTES_PER_BANK = 2 * SECTORS_PER_BLOCK * (SECTORS_PER_BLOCK + 1)

#: L2 banks a topology may have: every route code must fit the 16-bit
#: entries of a resolution's route array.
MAX_L2_BANKS = (1 << 16) // L2_ROUTES_PER_BANK

#: Aggregate DRAM bandwidth in bytes per core cycle.  336 GB/s at a
#: 1506 MHz core clock is ~223 B/cycle across 12 partitions.
DRAM_BYTES_PER_CYCLE_TOTAL = 336e9 / 1506e6

#: Per-partition DRAM service rate (bytes per core cycle).
DRAM_BYTES_PER_CYCLE = DRAM_BYTES_PER_CYCLE_TOTAL / NUM_PARTITIONS

#: Flat DRAM access latency (cycles) added to every request on top of
#: queueing/service time.
DRAM_LATENCY = 220

#: Hash/MAC engine latency in cycles (Table VI).
HASH_LATENCY = 40

#: Protected device memory range (4 GB, Section V).
PROTECTED_MEMORY_BYTES = 4 * 1024 ** 3

# --- Metadata caches (Table VI) ---------------------------------------------

#: Capacity of each metadata cache (counter / MAC / BMT) per partition.
MDC_SIZE = 2 * 1024

#: Metadata cache associativity.
MDC_WAYS = 4

#: Metadata cache MSHR entries.
MDC_MSHRS = 256

# --- BMT --------------------------------------------------------------------

#: Arity of the Bonsai Merkle Tree: one 128 B node holds 16 8-B hashes.
BMT_ARITY = 16
