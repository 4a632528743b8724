"""Metadata placement of a standalone MEE, observed and unobserved.

Observed and unobserved MEEs must place the same transfers in the same
order, book the same traffic and leave the metadata caches (and, with
the victim cache on, the L2 and the displaced data lines) in the same
state over the same seeded access stream.

Both now reach the metadata caches through the same code, so comparing
them alone cannot catch a change to that code.  Every run's output is
therefore also pinned to a digest captured from the earlier
three-path implementation (``metadata_pins.json``): every secure scheme,
observed and unobserved, plus ``shm_vl2`` with a live L2 victim store
whose banks start full of dirty data lines.  Regenerate the pins with
``PYTHONPATH=src python -m tests.core.test_fused_equivalence`` only
when a change is meant to move metadata placement.
"""

import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.core.mee import MemoryEncryptionEngine
from repro.core.policies.registry import available_schemes
from repro.memory.l2 import PartitionL2
from repro.metadata.counters import SharedCounter
from repro.obs.observer import Observer
from tests.conftest import record_transfers

SECURE_SCHEMES = [name for name in available_schemes()
                  if name != "unprotected"]
#: The victim-store run: ``shm_vl2`` wired to a pre-filled L2.
VICTIM_RUN = "shm_vl2+victim"
RUNS = SECURE_SCHEMES + [VICTIM_RUN]
PINS_PATH = Path(__file__).with_name("metadata_pins.json")
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


def _victim_store(config: SimConfig) -> PartitionL2:
    """Partition 0's L2 with every set its data lines reach full of
    dirty data, so parked metadata lines displace some of them."""
    l2 = PartitionL2(config.gpu, 0)
    for key in range(len(l2.banks) * config.gpu.l2_bank_size // 128):
        cache = l2.bank_for(key).cache
        cache.insert_line(key, cache.sectors_per_block, dirty=True)
    return l2


@functools.lru_cache(maxsize=None)
def _run(run: str, observed: bool) -> dict:
    scheme = run.split("+")[0]
    stream = _stream(seed=sum(map(ord, scheme)))
    config = SimConfig().with_scheme(scheme)
    mapper = AddressMapper(config.gpu.num_partitions,
                           config.gpu.interleave_bytes)
    mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter(),
                                 observer=Observer() if observed else None)
    l2 = None
    if run == VICTIM_RUN:
        l2 = _victim_store(config)
        mee.caches.l2 = l2
        mee.caches.victim_enabled = lambda: True
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
    out = {"transfers": [tuple(t) for t in log],
           "traffic": dataclasses.astuple(mee._traffic), "mdc": mdc,
           "ctr_done": ctr_done, "flush_done": flush_done,
           "displaced": [(d.line_key, d.dirty_sectors)
                         for d in mee.displaced]}
    if l2 is not None:
        out["l2"] = [_cache_state(bank.cache) for bank in l2.banks]
        out["victim"] = [(bank.victim_hits, bank.victim_insertions)
                         for bank in l2.banks]
    return out


def _digest(out: dict) -> str:
    return hashlib.sha256(repr(sorted(out.items())).encode()).hexdigest()


def _pin_key(run: str, observed: bool) -> str:
    return f"{run}/{'observed' if observed else 'unobserved'}"


@pytest.mark.parametrize("scheme", SECURE_SCHEMES)
def test_fused_paths_place_what_the_object_path_places(scheme):
    unobserved = _run(scheme, False)
    observed = _run(scheme, True)
    # The stream exercises fetches and write-backs of every kind.
    assert {(t[3], t[2]) for t in unobserved["transfers"]} >= {
        (kind, is_write) for kind in ("ctr", "mac", "bmt")
        for is_write in (False, True)}
    for key in ("transfers", "traffic", "mdc", "ctr_done", "flush_done",
                "displaced"):
        assert unobserved[key] == observed[key], key


def test_victim_store_runs_park_displace_and_agree():
    unobserved = _run(VICTIM_RUN, False)
    observed = _run(VICTIM_RUN, True)
    hits = sum(h for h, _ in unobserved["victim"])
    parked = sum(p for _, p in unobserved["victim"])
    assert hits and parked and unobserved["displaced"]
    assert unobserved == observed


def test_pins_cover_every_run():
    assert set(json.loads(PINS_PATH.read_text())) == {
        _pin_key(run, observed) for run in RUNS
        for observed in (False, True)}


@pytest.mark.parametrize("observed", [False, True],
                         ids=["unobserved", "observed"])
@pytest.mark.parametrize("run", RUNS)
def test_placement_matches_the_pinned_digest(run, observed):
    pins = json.loads(PINS_PATH.read_text())
    assert _digest(_run(run, observed)) == pins[_pin_key(run, observed)]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(
        {_pin_key(run, observed): _digest(_run(run, observed))
         for run in RUNS for observed in (False, True)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
