"""Access-pattern generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import patterns as pat

KB = 1024


@pytest.fixture
def rng():
    return random.Random(42)


class TestStreamRead:
    def test_covers_every_line_once(self):
        accesses = pat.stream_read(0, 4 * KB)
        assert len(accesses) == 32
        addrs = [a for a, w, n in accesses]
        assert addrs == list(range(0, 4 * KB, 128))
        assert all(not w and n == 4 for _, w, n in accesses)

    def test_passes(self):
        accesses = pat.stream_read(0, 4 * KB, passes=3)
        assert len(accesses) == 96

    def test_validation(self):
        with pytest.raises(ValueError):
            pat.stream_read(0, 33)
        with pytest.raises(ValueError):
            pat.stream_read(-128, 4 * KB)


class TestStreamWrite:
    def test_writes_line_grain(self):
        accesses = pat.stream_write(0, 4 * KB)
        assert all(w and n == 4 for _, w, n in accesses)


class TestStreamReadWrite:
    def test_alternates(self):
        accesses = pat.stream_read_write(0, 256)
        assert [w for _, w, _ in accesses] == [False, True, False, True]


class TestRandom:
    def test_random_read_in_range(self, rng):
        for addr, w, n in pat.random_read(rng, 1024, 4 * KB, 100):
            assert 1024 <= addr < 1024 + 4 * KB
            assert addr % 32 == 0
            assert not w and n == 1

    def test_random_write(self, rng):
        assert all(w for _, w, _ in pat.random_write(rng, 0, 4 * KB, 10))

    def test_hotspot_confined(self, rng):
        for addr, _, _ in pat.hotspot_read(rng, 0, 64 * KB, 200, hot_bytes=4 * KB):
            assert addr < 4 * KB


class TestStrided:
    def test_stride_and_wrap(self):
        accesses = pat.strided_read(0, 1024, stride=256, count=8)
        assert len(accesses) == 8
        assert accesses[1][0] - accesses[0][0] == 256
        assert all(0 <= a < 1024 for a, _, _ in accesses)


class TestGather:
    def test_in_range(self, rng):
        for addr, w, n in pat.gather_read(rng, 0, 64 * KB, 500, locality=0.5):
            assert 0 <= addr < 64 * KB and not w

    def test_locality_increases_sequentiality(self):
        rng1, rng2 = random.Random(1), random.Random(1)
        seq = pat.gather_read(rng1, 0, 1024 * KB, 1000, locality=0.9)
        rnd = pat.gather_read(rng2, 0, 1024 * KB, 1000, locality=0.0)

        def sequential_fraction(accesses):
            hits = sum(
                1 for i in range(1, len(accesses))
                if accesses[i][0] - accesses[i - 1][0] == 32
            )
            return hits / len(accesses)

        assert sequential_fraction(seq) > sequential_fraction(rnd) + 0.3

    def test_locality_validation(self, rng):
        with pytest.raises(ValueError):
            pat.gather_read(rng, 0, 4 * KB, 10, locality=1.0)


class TestSnake:
    def test_alternates_direction_per_pass(self):
        accesses = pat.snake(0, 4 * KB, passes=2)
        forward = [a for a, _, _ in accesses[:32]]
        backward = [a for a, _, _ in accesses[32:]]
        assert forward == list(range(0, 4 * KB, 128))
        assert backward == list(reversed(forward))

    def test_line_grain_reads_by_default(self):
        assert all(not w and n == 4 for _, w, n in pat.snake(0, 4 * KB))

    def test_write_flag(self):
        assert all(w for _, w, _ in pat.snake(0, 4 * KB, is_write=True))

    def test_deterministic(self):
        assert pat.snake(0, 8 * KB, passes=3) == \
            pat.snake(0, 8 * KB, passes=3)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            pat.snake(0, 4 * KB, stride=33)

    @given(passes=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_every_pass_covers_every_line(self, passes):
        accesses = pat.snake(0, 4 * KB, passes=passes)
        assert len(accesses) == 32 * passes
        for p in range(passes):
            chunk = {a for a, _, _ in accesses[p * 32:(p + 1) * 32]}
            assert chunk == set(range(0, 4 * KB, 128))


class TestZipfian:
    def test_deterministic_under_fixed_seed(self):
        a = pat.zipfian(random.Random(7), 0, 64 * KB, 500)
        b = pat.zipfian(random.Random(7), 0, 64 * KB, 500)
        assert a == b

    def test_sector_grain_within_buffer(self, rng):
        accesses = pat.zipfian(rng, 1024, 64 * KB, 500)
        for addr, w, n in accesses:
            assert 1024 <= addr < 1024 + 64 * KB
            assert addr % 32 == 0 and n == 1 and not w

    def test_head_is_hotter_than_tail(self, rng):
        accesses = pat.zipfian(rng, 0, 64 * KB, 2000, alpha=1.2)
        head = sum(1 for a, _, _ in accesses if a < 8 * KB)
        tail = sum(1 for a, _, _ in accesses if a >= 32 * KB)
        assert head > tail

    def test_alpha_zero_is_uniform_support(self, rng):
        accesses = pat.zipfian(rng, 0, 4 * KB, 2000, alpha=0.0)
        assert len({a for a, _, _ in accesses}) > 64

    def test_negative_alpha_rejected(self, rng):
        with pytest.raises(ValueError):
            pat.zipfian(rng, 0, 4 * KB, 10, alpha=-1.0)

    def test_write_flag(self, rng):
        assert all(w for _, w, _ in
                   pat.zipfian(rng, 0, 4 * KB, 50, is_write=True))

    @staticmethod
    def reference(rng, base, size, count, alpha, is_write):
        """Reference generator: rebuild the cumulative weights on every
        call and binary-search each draw by hand."""
        n = size // 32
        cumulative = []
        total = 0.0
        for k in range(1, n + 1):
            total += 1.0 / (k ** alpha)
            cumulative.append(total)
        out = []
        for _ in range(count):
            pick = rng.random() * total
            lo, hi = 0, n - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cumulative[mid] < pick:
                    lo = mid + 1
                else:
                    hi = mid
            out.append((base + lo * 32, is_write, 1))
        return out

    @pytest.mark.parametrize("alpha", [0, 0.5, 0.9, 1.2, 2.0])
    @pytest.mark.parametrize("size", [32, 96, 4 * KB, 64 * KB, 150 * KB])
    def test_matches_reference(self, alpha, size):
        for seed in (0, 7, 2241):
            for is_write in (False, True):
                expected = self.reference(random.Random(seed), 4096, size,
                                          300, alpha, is_write)
                # Twice: the second call is served from the memoized table.
                for _ in range(2):
                    assert pat.zipfian(random.Random(seed), 4096, size,
                                       300, alpha, is_write) == expected


class TestInterleave:
    def test_preserves_order_within_source(self, rng):
        a = pat.stream_read(0, 4 * KB)
        b = pat.stream_write(1 << 20, 4 * KB)
        merged = pat.interleave(rng, [a, b])
        assert len(merged) == len(a) + len(b)
        got_a = [x for x in merged if not x[1]]
        got_b = [x for x in merged if x[1]]
        assert got_a == a
        assert got_b == b

    def test_empty_sources_skipped(self, rng):
        assert pat.interleave(rng, [[], pat.stream_read(0, 128)]) == \
            pat.stream_read(0, 128)

    def test_chunked_interleave_same_multiset(self, rng):
        a = pat.stream_read(0, 8 * KB)
        b = pat.random_read(rng, 1 << 20, 4 * KB, 40)
        merged = pat.chunked_interleave(random.Random(5), [a, b])
        assert sorted(merged) == sorted(a + b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100), st.integers(1, 64))
def test_property_stream_read_within_bounds(base_kb, size_kb):
    base, size = base_kb * KB, size_kb * KB
    for addr, _, _ in pat.stream_read(base, size):
        assert base <= addr < base + size
