"""Address mapping: interleaving, local offsets, spans."""

import pytest
from hypothesis import given, strategies as st

from repro.common.address import AddressMapper, LocalAddress


@pytest.fixture
def mapper():
    return AddressMapper(num_partitions=12, interleave_bytes=256)


class TestConstruction:
    def test_rejects_non_power_of_two_interleave(self):
        with pytest.raises(ValueError):
            AddressMapper(12, 300)

    def test_rejects_sub_line_interleave(self):
        with pytest.raises(ValueError):
            AddressMapper(12, 64)

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            AddressMapper(0, 256)


class TestMapping:
    def test_first_chunk_maps_to_partition_zero(self, mapper):
        local = mapper.to_local(0)
        assert local == LocalAddress(partition=0, offset=0)

    def test_round_robin_partitions(self, mapper):
        for chunk in range(24):
            assert mapper.partition_of(chunk * 256) == chunk % 12

    def test_offset_preserved_within_chunk(self, mapper):
        local = mapper.to_local(256 * 12 + 40)
        assert local.partition == 0
        assert local.offset == 256 + 40

    def test_local_offsets_dense_per_partition(self, mapper):
        # Partition 3 owns chunks 3, 15, 27, ... at local chunks 0, 1, 2.
        for i in range(5):
            local = mapper.to_local((3 + 12 * i) * 256)
            assert local.partition == 3
            assert local.offset == i * 256

    def test_negative_address_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.to_local(-1)


class TestRoundTrip:
    @given(st.integers(min_value=0, max_value=2**34))
    def test_property_roundtrip(self, physical):
        mapper = AddressMapper(12, 256)
        assert mapper.to_physical(mapper.to_local(physical)) == physical

    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_property_roundtrip_any_partition_count(self, parts, physical):
        mapper = AddressMapper(parts, 512)
        assert mapper.to_physical(mapper.to_local(physical)) == physical


class TestLocalSpan:
    def test_empty_range(self, mapper):
        assert mapper.local_span(0, 0, 3) == (0, 0)

    def test_full_alignment_gives_equal_spans(self, mapper):
        # 192 KB-aligned ranges cover every partition equally.
        align = 256 * 12 * 64  # 192 KB
        spans = [mapper.local_span(align, align, p) for p in range(12)]
        sizes = {hi - lo for lo, hi in spans}
        assert sizes == {align // 12}

    @given(
        st.integers(min_value=0, max_value=2**24),
        st.integers(min_value=1, max_value=2**22),
    )
    def test_property_span_matches_bruteforce(self, start, size):
        """The closed-form span equals a brute-force chunk walk."""
        mapper = AddressMapper(4, 256)
        for partition in range(4):
            lo, hi = mapper.local_span(start, size, partition)
            chunks = set()
            c0 = start // 256
            c1 = -(-(start + size) // 256)
            for c in range(c0, c1):
                if c % 4 == partition:
                    chunks.add(c // 4)
            if not chunks:
                assert lo == hi
            else:
                assert lo == min(chunks) * 256
                assert hi == (max(chunks) + 1) * 256

    def test_covers_accesses(self, mapper):
        """Every access inside the physical range lands inside the span."""
        start, size = 1000 * 256, 77 * 256
        for addr in range(start, start + size, 128):
            local = mapper.to_local(addr)
            lo, hi = mapper.local_span(start, size, local.partition)
            assert lo <= local.offset < hi


class TestGranularityHelpers:
    def test_block_id(self):
        assert AddressMapper.block_id(0) == 0
        assert AddressMapper.block_id(127) == 0
        assert AddressMapper.block_id(128) == 1

    def test_region_id_default_16kb(self):
        assert AddressMapper.region_id(16 * 1024 - 1) == 0
        assert AddressMapper.region_id(16 * 1024) == 1

    def test_chunk_id_default_4kb(self):
        assert AddressMapper.chunk_id(4095) == 0
        assert AddressMapper.chunk_id(4096) == 1

    def test_block_offset_in_chunk(self):
        assert AddressMapper.block_offset_in_chunk(0) == 0
        assert AddressMapper.block_offset_in_chunk(4096 - 128) == 31
        assert AddressMapper.block_offset_in_chunk(4096) == 0

    def test_block_align(self):
        assert AddressMapper.block_align(200) == 128
        assert AddressMapper.chunk_align(5000) == 4096
