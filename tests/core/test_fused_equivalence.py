"""The MEE's fused metadata paths against its object path.

An unobserved MEE probes MDC hits inline and runs MDC misses fused
(``_meta_miss``, victim cache off); an observed MEE takes every
metadata access through :meth:`MetadataCaches.access`.  Over the same
seeded access stream both must place the same transfers in the same
order, book the same traffic and leave the metadata caches in the same
state.
"""

import random

import pytest

from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.core.mee import MemoryEncryptionEngine
from repro.core.policies.registry import available_schemes
from repro.metadata.counters import SharedCounter
from repro.obs.observer import Observer
from tests.conftest import record_transfers

SECURE_SCHEMES = [name for name in available_schemes()
                  if name != "unprotected"]
#: Local footprint of the stream: far beyond what the 2 KB MDCs (and
#: the BMT cache) cover.
FOOTPRINT = 256 << 20
ACCESSES = 4000
KERNEL_ACCESSES = 1000


def _stream(seed: int) -> list:
    """Bursts of reads and writes — sequential from a random block,
    random within a 16 KB window, or random over the whole footprint —
    so streaming and random chunks, both verdicts and their
    mispredictions all occur."""
    rng = random.Random(seed)
    blocks = FOOTPRINT // 128
    accesses = []
    while len(accesses) < ACCESSES:
        shape = rng.randrange(3)
        writes = rng.random() < 0.3
        base = rng.randrange(blocks - 128)
        for i in range(rng.randrange(16, 128)):
            if shape == 0:
                block = base + i
            elif shape == 1:
                block = base + rng.randrange(128)
            else:
                block = rng.randrange(blocks)
            accesses.append((block * 128, writes and rng.random() < 0.8))
    return accesses[:ACCESSES]


def _cache_state(cache) -> tuple:
    return (cache.accesses, cache.hits, cache.sector_fills,
            cache.writebacks,
            [(key, line.valid_mask, line.dirty_mask)
             for lines in cache._sets for key, line in lines.items()])


def _run(scheme: str, observer, stream: list) -> dict:
    config = SimConfig().with_scheme(scheme)
    mapper = AddressMapper(config.gpu.num_partitions,
                           config.gpu.interleave_bytes)
    mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter(),
                                 observer=observer)
    log = record_transfers(mee)
    mee.on_host_copy(0, FOOTPRINT // 2, at_init=True)
    ctr_done = []
    for i, (offset, is_write) in enumerate(stream):
        cycle = float(i)
        if i % KERNEL_ACCESSES == 0:
            kernel = i // KERNEL_ACCESSES
            if kernel == 2:
                mee.on_host_copy(0, FOOTPRINT // 8, at_init=False,
                                 cycle=cycle)
            elif kernel == 3:
                mee.input_read_only_reset(0, FOOTPRINT // 8, cycle=cycle)
            mee.on_kernel_boundary(kernel, cycle)
        if is_write:
            mee.on_writeback(cycle, offset, offset)
        else:
            ctr_done.append(mee.on_read_miss(cycle, offset, offset))
    caches = mee.caches
    mdc = [_cache_state(c) for c in (caches.counter, caches.mac, caches.bmt)]
    flush_done = mee.flush(float(len(stream)))
    return {"fused_miss": mee._fused_miss, "transfers": log,
            "traffic": mee._traffic, "mdc": mdc, "ctr_done": ctr_done,
            "flush_done": flush_done}


@pytest.mark.parametrize("scheme", SECURE_SCHEMES)
def test_fused_paths_place_what_the_object_path_places(scheme):
    stream = _stream(seed=sum(map(ord, scheme)))
    fused = _run(scheme, None, stream)
    reference = _run(scheme, Observer(), stream)
    assert fused["fused_miss"] == (scheme != "shm_vl2")
    assert not reference["fused_miss"]
    # The stream exercises fetches and write-backs of every kind.
    assert {(t.kind, t.is_write) for t in fused["transfers"]} >= {
        (kind, is_write) for kind in ("ctr", "mac", "bmt")
        for is_write in (False, True)}
    for key in ("transfers", "traffic", "mdc", "ctr_done", "flush_done"):
        assert fused[key] == reference[key], key
