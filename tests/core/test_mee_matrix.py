"""Scheme-matrix smoke and invariant tests for the MEE.

Every Table VIII design must handle arbitrary read/write mixes without
error, with deterministic traffic and sane invariants.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.mee import MemoryEncryptionEngine
from repro.metadata.counters import SharedCounter
from tests.conftest import placed, record_transfers

SECURE_SCHEMES = [s for s in Scheme if s is not Scheme.UNPROTECTED]


def make_mee(scheme):
    config = SimConfig().with_scheme(scheme)
    mapper = AddressMapper(config.gpu.num_partitions,
                           config.gpu.interleave_bytes)
    mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter())
    record_transfers(mee)
    return mee


def drive(mee, n=300, seed=1, footprint=1 << 20):
    rng = random.Random(seed)
    total = 0
    for i in range(n):
        offset = rng.randrange(footprint // 128) * 128
        if rng.random() < 0.3:
            res = placed(mee.on_writeback, i, offset, offset)
        else:
            res = placed(mee.on_read_miss, i, offset, offset)
        for req in res:
            assert req.size > 0
            assert 0 <= req.partition < 12
            assert req.kind in ("ctr", "mac", "bmt", "mispred", "data")
            total += req.size
    return total


@pytest.mark.parametrize("scheme", SECURE_SCHEMES)
class TestSchemeMatrix:
    def test_handles_mixed_traffic(self, scheme):
        mee = make_mee(scheme)
        mee.on_host_copy(0, 256 * 1024, at_init=True)
        assert drive(mee) >= 0

    def test_deterministic(self, scheme):
        a, b = make_mee(scheme), make_mee(scheme)
        for m in (a, b):
            m.on_host_copy(0, 256 * 1024, at_init=True)
        assert drive(a, seed=7) == drive(b, seed=7)

    def test_flush_is_idempotent(self, scheme):
        mee = make_mee(scheme)
        drive(mee, n=100)
        first = placed(mee.flush)
        second = placed(mee.flush)
        assert not second  # everything already drained
        assert all(r.is_write for r in first)

    def test_caches_respect_capacity(self, scheme):
        mee = make_mee(scheme)
        drive(mee, n=500, footprint=8 << 20)
        for cache in (mee.caches.counter, mee.caches.mac, mee.caches.bmt):
            assert cache.resident_lines() <= cache.config.num_blocks


class TestTrafficInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**16), st.booleans())
    def test_property_single_access_bounded_traffic(self, block, is_write):
        """No single access may generate unbounded metadata traffic
        (worst case: unsectored line fills on every metadata kind plus
        a full tree walk)."""
        mee = make_mee(Scheme.NAIVE)
        offset = block * 128
        res = (placed(mee.on_writeback, 0, offset, offset) if is_write
               else placed(mee.on_read_miss, 0, offset, offset))
        assert sum(r.size for r in res) <= 16 * 1024

    def test_readonly_reads_generate_no_freshness_traffic(self):
        mee = make_mee(Scheme.SHM)
        mee.on_host_copy(0, 1 << 20, at_init=True)
        rng = random.Random(3)
        for i in range(400):
            offset = rng.randrange((1 << 20) // 128) * 128
            res = placed(mee.on_read_miss, i, offset, offset)
            kinds = {r.kind for r in res}
            assert "ctr" not in kinds and "bmt" not in kinds

    def test_critical_requests_are_always_counter_reads(self):
        for scheme in (Scheme.NAIVE, Scheme.PSSM, Scheme.SHM):
            mee = make_mee(scheme)
            rng = random.Random(5)
            for i in range(200):
                offset = rng.randrange(4096) * 128
                res = placed(mee.on_read_miss, i, offset, offset)
                for req in res:
                    if req.critical:
                        assert req.kind == "ctr" and not req.is_write

    def test_writes_never_critical(self):
        mee = make_mee(Scheme.PSSM)
        for i in range(100):
            res = placed(mee.on_writeback, i, i * 128, i * 128)
            assert not any(r.critical for r in res)
