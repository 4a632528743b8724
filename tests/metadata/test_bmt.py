"""BMT walker: traversal traffic with stop-at-cached-ancestor."""

import pytest

from repro.common.config import MDCConfig
from repro.metadata.bmt import BMTWalker
from repro.metadata.caches import MetadataCaches
from tests.conftest import RecordingPlace


@pytest.fixture
def placed():
    return RecordingPlace()


@pytest.fixture
def mdc(placed):
    return MetadataCaches(MDCConfig(), partition_id=0, place=placed)


class TestWalk:
    def test_cold_walk_touches_interior_levels(self, mdc, placed):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)  # 4 levels
        walker.walk(mdc, leaf_index=0, is_write=False)
        # Levels 1..3 fetched (the root register is free).
        assert len([t for t in placed if not t.is_write]) == walker.levels - 1

    def test_warm_walk_stops_at_first_hit(self, mdc, placed):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)
        walker.walk(mdc, leaf_index=0, is_write=False)
        del placed[:]
        walker.walk(mdc, leaf_index=0, is_write=False)
        assert not placed  # whole path cached: trusted ancestor at L1

    def test_sibling_leaves_share_path(self, mdc, placed):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)
        walker.walk(mdc, leaf_index=0, is_write=False)
        del placed[:]
        walker.walk(mdc, leaf_index=1, is_write=False)
        assert not placed  # leaf 1's parent == leaf 0's parent

    def test_write_walk_dirties_nodes(self, mdc):
        walker = BMTWalker(protected_bytes=4 * 1024**3 // 12)
        walker.walk(mdc, leaf_index=0, is_write=True)
        flushed = mdc.flush()
        assert any(kind == "bmt" for kind, _, _ in flushed)

    def test_walk_counts(self, mdc):
        walker = BMTWalker(protected_bytes=16 * 1024 * 1024)
        walker.walk(mdc, leaf_index=0, is_write=False)
        assert walker.walks == 1
        assert walker.nodes_touched >= 1

    def test_small_memory_single_level(self, mdc, placed):
        walker = BMTWalker(protected_bytes=16 * 1024)
        walker.walk(mdc, leaf_index=0, is_write=False)
        assert not placed  # only the root above the leaf: free
