"""Metadata geometry: coverage arithmetic and carve-out placement."""

from hypothesis import given, strategies as st

from repro.common import constants
from repro.metadata import layout


class TestCounterGeometry:
    def test_counter_line_covers_16kb(self):
        # 128 blocks of 128 B = 16 KB per counter line.
        assert layout.counter_line(0) == layout.counter_line(127)
        assert layout.counter_line(128) == 1

    def test_counter_sector_covers_4kb(self):
        ref0 = layout.counter_sector(0)
        ref31 = layout.counter_sector(31)
        ref32 = layout.counter_sector(32)
        assert ref0 == ref31
        assert ref0 != ref32

    def test_four_sectors_per_counter_line(self):
        sectors = {layout.counter_sector(b).sector for b in range(128)}
        assert sectors == {0, 1, 2, 3}
        keys = {layout.counter_sector(b).line_key for b in range(128)}
        assert keys == {0}


class TestMACGeometry:
    def test_mac_line_covers_16_blocks(self):
        assert layout.mac_sector(0).line_key == layout.mac_sector(15).line_key
        assert layout.mac_sector(16).line_key == 1

    def test_mac_sector_covers_4_blocks(self):
        assert layout.mac_sector(0) == layout.mac_sector(3)
        assert layout.mac_sector(3) != layout.mac_sector(4)

    def test_chunk_mac_key_space_disjoint(self):
        blk = layout.mac_sector(10)
        cm = layout.chunk_mac_sector(10)
        assert cm.line_key >= layout.CHUNK_MAC_KEY_BASE
        assert blk.line_key < layout.CHUNK_MAC_KEY_BASE

    def test_chunk_mac_sector_covers_4_chunks(self):
        assert layout.chunk_mac_sector(0) == layout.chunk_mac_sector(3)
        assert layout.chunk_mac_sector(3) != layout.chunk_mac_sector(4)


class TestBMTGeometry:
    def test_leaf_per_counter_line(self):
        assert layout.bmt_leaf(0) == 0
        assert layout.bmt_leaf(127) == 0
        assert layout.bmt_leaf(128) == 1

    def test_levels_for_4gb(self):
        # 4 GB -> 256 Ki counter lines -> log16(262144) = 4.5 -> 5 levels.
        assert layout.bmt_levels(4 * 1024**3) == 5

    def test_levels_for_partition_share(self):
        share = 4 * 1024**3 // 12
        assert layout.bmt_levels(share) == 4

    def test_levels_at_counter_tree_arity(self):
        # 21,845 counter lines -> 2,731 -> 342 -> 43 -> 6 -> 1.
        assert layout.bmt_levels(4 * 1024**3 // 12, arity=8) == 5

    def test_levels_minimum_one(self):
        assert layout.bmt_levels(16 * 1024) == 1


class TestMetadataLayout:
    def test_carveout_regions_ordered_and_disjoint(self):
        ml = layout.MetadataLayout()
        assert ml.counter_base == constants.PROTECTED_MEMORY_BYTES
        assert ml.mac_base == ml.counter_base + ml.counter_space
        assert ml.chunk_mac_base == ml.mac_base + ml.mac_space
        assert ml.bmt_base == ml.chunk_mac_base + ml.chunk_mac_space

    def test_mac_space_is_one_sixteenth_of_data(self):
        ml = layout.MetadataLayout()
        assert ml.mac_space == ml.protected_bytes // 16

    def test_counter_space(self):
        ml = layout.MetadataLayout()
        # One 128 B line per 16 KB of data = 1/128 of the data size.
        assert ml.counter_space == ml.protected_bytes // 128

    def test_counter_addresses_within_region(self):
        ml = layout.MetadataLayout()
        last_line = ml.protected_bytes // (16 * 1024) - 1
        addr = ml.counter_address(last_line)
        assert ml.counter_base <= addr < ml.mac_base

    def test_mac_address_routes_chunk_keys(self):
        ml = layout.MetadataLayout()
        blk_addr = ml.mac_address(0)
        cm_addr = ml.mac_address(layout.CHUNK_MAC_KEY_BASE)
        assert blk_addr == ml.mac_base
        assert cm_addr == ml.chunk_mac_base

    def test_bmt_addresses_distinct_across_levels(self):
        ml = layout.MetadataLayout()
        a1 = ml.bmt_address(1 * layout.BMT_LEVEL_KEY_BASE + 0)
        a2 = ml.bmt_address(2 * layout.BMT_LEVEL_KEY_BASE + 0)
        assert a1 != a2
        assert a1 >= ml.bmt_base and a2 >= ml.bmt_base


@given(st.integers(min_value=0, max_value=2**25))
def test_property_every_block_has_all_metadata(block_id):
    ctr = layout.counter_sector(block_id)
    mac = layout.mac_sector(block_id)
    assert 0 <= ctr.sector < 4 and 0 <= mac.sector < 4
    assert layout.bmt_leaf(block_id) == layout.counter_line(block_id)
