"""Warp-level access generation and the coalescing model."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.patterns import warp_accesses

KB = 1024


@pytest.fixture
def rng():
    return random.Random(9)


class TestCoalescing:
    def test_fully_coalesced_warp_is_one_line_access(self, rng):
        # 32 threads x 4 B = 128 B: one transaction of 4 sectors.
        accesses = warp_accesses(rng, 0, 64 * KB, n_warps=1, divergence=0.0)
        assert accesses == [(0, False, 4)]

    def test_sequential_warps_stream(self, rng):
        accesses = warp_accesses(rng, 0, 64 * KB, n_warps=4)
        assert [a for a, _, _ in accesses] == [0, 128, 256, 384]

    def test_8byte_elements_two_lines(self, rng):
        # 32 threads x 8 B = 256 B: two line-grain transactions.
        accesses = warp_accesses(rng, 0, 64 * KB, n_warps=1, element_bytes=8)
        assert accesses == [(0, False, 4), (128, False, 4)]

    def test_divergence_fragments_transactions(self):
        coalesced = warp_accesses(random.Random(3), 0, 1024 * KB, 50,
                                  divergence=0.0)
        divergent = warp_accesses(random.Random(3), 0, 1024 * KB, 50,
                                  divergence=0.9)
        assert len(divergent) > len(coalesced)
        # Divergent transactions are mostly narrow.
        avg_width = sum(n for _, _, n in divergent) / len(divergent)
        assert avg_width < 3.0

    def test_transactions_never_cross_lines(self, rng):
        accesses = warp_accesses(rng, 0, 256 * KB, 100, divergence=0.5)
        for addr, _, nsectors in accesses:
            first = (addr % 128) // 32
            assert first + nsectors <= 4

    def test_writes_flagged(self, rng):
        accesses = warp_accesses(rng, 0, 64 * KB, 2, is_write=True)
        assert all(w for _, w, _ in accesses)

    def test_divergence_validation(self, rng):
        with pytest.raises(ValueError):
            warp_accesses(rng, 0, 64 * KB, 1, divergence=1.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.floats(0.0, 1.0))
def test_property_all_transactions_in_bounds(n_warps, divergence):
    rng = random.Random(42)
    size = 128 * KB
    for addr, _, nsectors in warp_accesses(rng, 0, size, n_warps,
                                           divergence=divergence):
        assert 0 <= addr < size
        assert 1 <= nsectors <= 4
        assert addr % 32 == 0
