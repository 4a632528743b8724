"""Access-pattern generators.

A primitive returns a list of ``(address, is_write, n_sectors)``
tuples — SM-side memory requests of one kernel.  Specs and builders
compose those lists freely; a :class:`~repro.workloads.base.Kernel`
converts its list once, when it is built, into the
:class:`~repro.workloads.base.Trace` it holds.  Streaming requests are
line-grain (a fully coalesced warp touches all four 32 B sectors of a
128 B line); random requests are sector-grain (one 32 B sector of a
line, the case the sectored L2 exists for).

Generators are pure functions of a :class:`random.Random` instance so
traces are reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

from repro.common import constants

Access = Tuple[int, bool, int]

LINE = constants.BLOCK_SIZE
SECTOR = constants.SECTOR_SIZE
SECTORS = constants.SECTORS_PER_BLOCK


def stream_read(base: int, size: int, passes: int = 1, stride: int = LINE) -> List[Access]:
    """Sequential line-grain reads over [base, base+size), repeated."""
    _check(base, size)
    out = []
    for _ in range(passes):
        for addr in range(base, base + size, stride):
            out.append((addr, False, SECTORS))
    return out


def stream_write(base: int, size: int, passes: int = 1) -> List[Access]:
    """Sequential line-grain writes (a fully written output buffer)."""
    _check(base, size)
    out = []
    for _ in range(passes):
        for addr in range(base, base + size, LINE):
            out.append((addr, True, SECTORS))
    return out


def stream_read_write(base: int, size: int, passes: int = 1) -> List[Access]:
    """Read-modify-write streams (in-place update of a buffer)."""
    _check(base, size)
    out = []
    for _ in range(passes):
        for addr in range(base, base + size, LINE):
            out.append((addr, False, SECTORS))
            out.append((addr, True, SECTORS))
    return out


def random_read(
    rng: random.Random, base: int, size: int, count: int
) -> List[Access]:
    """Uniform random sector-grain reads over a buffer."""
    _check(base, size)
    sectors = size // SECTOR
    return [
        (base + rng.randrange(sectors) * SECTOR, False, 1) for _ in range(count)
    ]


def random_write(
    rng: random.Random, base: int, size: int, count: int
) -> List[Access]:
    """Uniform random sector-grain writes (histogram updates etc.)."""
    _check(base, size)
    sectors = size // SECTOR
    return [
        (base + rng.randrange(sectors) * SECTOR, True, 1) for _ in range(count)
    ]


def hotspot_read(
    rng: random.Random, base: int, size: int, count: int, hot_bytes: int
) -> List[Access]:
    """Random reads concentrated in a hot subset (L2-friendly reuse)."""
    _check(base, size)
    hot_bytes = min(hot_bytes, size)
    sectors = hot_bytes // SECTOR
    return [
        (base + rng.randrange(sectors) * SECTOR, False, 1) for _ in range(count)
    ]


def snake(base: int, size: int, passes: int = 1, is_write: bool = False,
          stride: int = LINE) -> List[Access]:
    """Boustrophedon sweep: forward over the buffer, then backward,
    alternating per pass (blocked matrix traversals, zig-zag tilings).
    Line-grain like a stream, but the direction flip defeats next-line
    prefetch assumptions and revisits chunk boundaries from both
    sides — a stress case for the streaming detector's monotonic-walk
    heuristic."""
    _check(base, size)
    if stride <= 0 or stride % SECTOR:
        raise ValueError("stride must be a positive multiple of the sector size")
    forward = list(range(base, base + size, stride))
    out: List[Access] = []
    for p in range(passes):
        walk = forward if p % 2 == 0 else list(reversed(forward))
        for addr in walk:
            out.append((addr, is_write, SECTORS))
    return out


def zipfian(rng: random.Random, base: int, size: int, count: int,
            alpha: float = 0.9, is_write: bool = False) -> List[Access]:
    """Power-law sector-grain accesses: sector rank ``k`` is drawn with
    probability proportional to ``1 / k**alpha`` (inverse-CDF over the
    truncated Zipf distribution).  Models skewed key/embedding lookups:
    a hot head that lives in the L2 plus a long random tail that does
    not — the multi-tenant contention suites lean on it because the
    hot head keeps metadata-cache lines resident until a competing
    tenant evicts them."""
    _check(base, size)
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    cumulative = _zipf_cumulative(size // SECTOR, alpha)
    total = cumulative[-1]
    # random() < 1, so every pick lands at or before the last entry.
    return [
        (base + bisect_left(cumulative, rng.random() * total) * SECTOR,
         is_write, 1)
        for _ in range(count)
    ]


@lru_cache(maxsize=16, typed=True)
def _zipf_cumulative(n: int, alpha: float) -> Tuple[float, ...]:
    """Running sums of the Zipf weights ``1 / k**alpha``, k = 1..n.

    Memoized: multi-tenant suites draw a few accesses per burst from
    the same few (slab, alpha) tables thousands of times.  ``typed``
    keeps an int ``alpha`` from sharing a float one's entry, since
    ``k ** 2`` and ``k ** 2.0`` may round differently.
    """
    return tuple(accumulate(1.0 / (k ** alpha) for k in range(1, n + 1)))


def strided_read(base: int, size: int, stride: int, count: int) -> List[Access]:
    """Strided sector-grain reads (column-major walks, sparse rows)."""
    _check(base, size)
    out = []
    addr = base
    for _ in range(count):
        out.append((addr, False, 1))
        addr += stride
        if addr >= base + size:
            addr = base + (addr - base) % size
            addr -= addr % SECTOR
    return out


def gather_read(
    rng: random.Random, base: int, size: int, count: int, locality: float = 0.0
) -> List[Access]:
    """Pointer-chase style gathers: mostly random, with an optional
    fraction of spatially-local follow-up accesses (b+tree, bfs)."""
    _check(base, size)
    if not 0.0 <= locality < 1.0:
        raise ValueError("locality must be in [0, 1)")
    sectors = size // SECTOR
    out: List[Access] = []
    addr = base
    for _ in range(count):
        if out and rng.random() < locality:
            addr = min(addr + SECTOR, base + size - SECTOR)
        else:
            addr = base + rng.randrange(sectors) * SECTOR
        out.append((addr, False, 1))
    return out


def warp_accesses(
    rng: random.Random,
    base: int,
    size: int,
    n_warps: int,
    element_bytes: int = 4,
    divergence: float = 0.0,
    is_write: bool = False,
    sequential_warps: bool = True,
) -> List[Access]:
    """Warp-level generation with a coalescing model.

    Each warp has 32 threads; thread ``t`` of warp ``w`` accesses
    ``base + (32*w + t) * element_bytes`` (the canonical coalesced
    pattern), except that with probability ``divergence`` a thread
    jumps to a random element instead.  The coalescer merges the
    warp's touched sectors into the fewest contiguous transactions —
    a fully coalesced 4-byte-per-thread warp becomes one 128 B
    line-grain access; divergent threads spill into extra sector-grain
    transactions, exactly the effect sectored caches exist for.
    """
    _check(base, size)
    if not 0.0 <= divergence <= 1.0:
        raise ValueError("divergence must be in [0, 1]")
    n_elements = size // element_bytes
    out: List[Access] = []
    for w in range(n_warps):
        sectors = set()
        for t in range(32):
            if sequential_warps:
                element = (32 * w + t) % n_elements
            else:
                element = (rng.randrange(n_elements) // 32 * 32 + t) % n_elements
            if divergence and rng.random() < divergence:
                element = rng.randrange(n_elements)
            addr = base + element * element_bytes
            sectors.add(addr // SECTOR)
        # Coalesce contiguous sectors into single transactions.
        for start, count in _runs(sorted(sectors)):
            out.append((start * SECTOR, is_write, count))
    return out


def _runs(sorted_ids: List[int]) -> Iterator[Tuple[int, int]]:
    """Yield (start, length) for maximal runs of consecutive ids that
    do not cross a cache-line boundary."""
    i = 0
    n = len(sorted_ids)
    while i < n:
        start = sorted_ids[i]
        length = 1
        while (
            i + length < n
            and sorted_ids[i + length] == start + length
            and (start + length) % SECTORS != 0
        ):
            length += 1
        yield start, length
        i += length


def interleave(
    rng: random.Random, sources: Sequence[List[Access]]
) -> List[Access]:
    """Merge several access lists as concurrently-running warps would:
    each step draws from a source with probability proportional to its
    remaining length, preserving each source's internal order."""
    queues = [list(reversed(src)) for src in sources if src]
    out: List[Access] = []
    total = sum(len(q) for q in queues)
    while total:
        pick = rng.randrange(total)
        for queue in queues:
            if pick < len(queue):
                out.append(queue.pop())
                total -= 1
                break
            pick -= len(queue)
        queues = [q for q in queues if q]
    return out


def chunked_interleave(
    rng: random.Random, sources: Sequence[List[Access]], chunk: int = 16
) -> List[Access]:
    """Like :func:`interleave` but in bursts of ``chunk`` accesses,
    matching the burstiness of warp-level memory divergence."""
    queues = [list(reversed(src)) for src in sources if src]
    out: List[Access] = []
    while queues:
        weights = [len(q) for q in queues]
        queue = rng.choices(queues, weights=weights)[0]
        for _ in range(min(chunk, len(queue))):
            out.append(queue.pop())
        queues = [q for q in queues if q]
    return out


def _check(base: int, size: int) -> None:
    if base < 0:
        raise ValueError("base must be non-negative")
    if size <= 0 or size % SECTOR:
        raise ValueError("size must be a positive multiple of the sector size")
