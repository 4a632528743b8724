"""The MEE's per-scheme metadata traffic (the heart of the model)."""

import pytest

from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import Pattern, Scheme
from repro.core.mee import MemoryEncryptionEngine
from repro.metadata.counters import SharedCounter
from repro.metadata.layout import CHUNK_MAC_KEY_BASE
from tests.conftest import placed, record_transfers

KB = 1024


def make_mee(scheme, **overrides):
    config = SimConfig().with_scheme(scheme, **overrides)
    mapper = AddressMapper(config.gpu.num_partitions, config.gpu.interleave_bytes)
    mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter())
    record_transfers(mee)
    return mee


def kinds(requests):
    return sorted({r.kind for r in requests})


class TestUnprotected:
    def test_no_traffic(self):
        mee = make_mee(Scheme.UNPROTECTED)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert not res


class TestPSSM:
    def test_read_miss_fetches_counter_mac_and_bmt_sectors(self):
        mee = make_mee(Scheme.PSSM)
        res = placed(mee.on_read_miss, 0, 0, 0)
        # A cold counter miss also verifies its BMT path.
        assert kinds(res) == ["bmt", "ctr", "mac"]
        assert all(r.size == 32 for r in res)  # sectored

    def test_counter_fetch_is_decrypt_critical(self):
        mee = make_mee(Scheme.PSSM)
        res = placed(mee.on_read_miss, 0, 0, 0)
        critical = [r for r in res if r.critical]
        assert len(critical) == 1
        assert critical[0].kind == "ctr"

    def test_mac_fetch_not_critical(self):
        mee = make_mee(Scheme.PSSM)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert not any(r.critical for r in res if r.kind == "mac")

    def test_metadata_routed_to_own_partition(self):
        mee = make_mee(Scheme.PSSM)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert all(r.partition == 0 for r in res)

    def test_counter_cache_absorbs_repeat_accesses(self):
        mee = make_mee(Scheme.PSSM)
        mee.on_read_miss(0, 0, 0)
        res = placed(mee.on_read_miss, 1, 128, 128)  # same counter sector
        assert "ctr" not in kinds(res)

    def test_write_fetches_counter_rmw(self):
        mee = make_mee(Scheme.PSSM)
        res = placed(mee.on_writeback, 0, 0, 0)
        ctr = [r for r in res if r.kind == "ctr"]
        assert len(ctr) == 1 and not ctr[0].is_write  # read-modify-write fetch

    def test_mac_write_produces_without_fetch(self):
        mee = make_mee(Scheme.PSSM)
        res = placed(mee.on_writeback, 0, 0, 0)
        assert not [r for r in res if r.kind == "mac"]
        # The produced MAC is dirty in the cache; it reaches DRAM at flush.
        flushed = placed(mee.flush)
        assert any(r.kind == "mac" and r.is_write for r in flushed)


class TestNaive:
    def test_unsectored_fetch_is_full_line(self):
        mee = make_mee(Scheme.NAIVE)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert all(r.size == 128 for r in res if r.kind in ("ctr", "mac"))

    def test_metadata_routed_by_physical_carveout(self):
        mee = make_mee(Scheme.NAIVE)
        res = placed(mee.on_read_miss, 0, 0, 0)
        partitions = {r.partition for r in res}
        assert partitions  # routed somewhere valid
        assert all(0 <= p < 12 for p in partitions)

    def test_bmt_traffic_on_counter_miss(self):
        mee = make_mee(Scheme.NAIVE)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert "bmt" in kinds(res)


class TestReadOnlyOptimization:
    def test_read_only_read_skips_counter_and_bmt(self):
        mee = make_mee(Scheme.SHM_READONLY)
        mee.on_host_copy(0, 64 * KB, at_init=True)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert kinds(res) == ["mac"]
        assert mee.shared_counter_reads == 1

    def test_not_marked_region_uses_counters(self):
        mee = make_mee(Scheme.SHM_READONLY)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert "ctr" in kinds(res)

    def test_write_triggers_transition_and_propagation(self):
        mee = make_mee(Scheme.SHM_READONLY)
        mee.on_host_copy(0, 64 * KB, at_init=True)
        mee.on_writeback(0, 0, 0)
        assert mee.readonly.transitions == 1
        # Propagated counters are dirty in the counter cache.
        flushed = placed(mee.flush)
        assert any(r.kind == "ctr" and r.is_write for r in flushed)
        # Subsequent reads use per-block counters.
        res = placed(mee.on_read_miss, 1, 0, 0)
        assert "ctr" in kinds(res) or not res  # cached ok
        assert mee.shared_counter_reads == 0

    def test_midrun_copy_clears_read_only(self):
        mee = make_mee(Scheme.SHM_READONLY)
        mee.on_host_copy(0, 64 * KB, at_init=True)
        mee.on_host_copy(0, 64 * KB, at_init=False)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert "ctr" in kinds(res)


class TestResetAPI:
    def test_reset_raises_shared_counter_above_majors(self):
        mee = make_mee(Scheme.SHM_READONLY)
        mee.counters.set_major(0, 90)  # as in Fig. 9
        new_value = mee.input_read_only_reset(0, 16 * KB)
        assert new_value == 91

    def test_reset_rearms_read_only(self):
        mee = make_mee(Scheme.SHM_READONLY)
        mee.on_host_copy(0, 16 * KB, at_init=True)
        mee.on_writeback(0, 0, 0)  # transition away
        mee.input_read_only_reset(0, 16 * KB)
        res = placed(mee.on_read_miss, 1, 0, 0)
        assert "ctr" not in kinds(res)

    def test_empty_range_rejected(self):
        mee = make_mee(Scheme.SHM_READONLY)
        with pytest.raises(ValueError):
            mee.input_read_only_reset(100, 100)


class TestCommonCounters:
    def test_common_line_skips_counter_fetch(self):
        mee = make_mee(Scheme.PSSM_CTR)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert "ctr" not in kinds(res)
        assert mee.common_counter_hits == 1

    def test_diverged_line_fetches_counters(self):
        mee = make_mee(Scheme.PSSM_CTR)
        mee.on_writeback(0, 0, 0)  # diverges the line
        # Block 32 shares the 16 KB counter line but lives in a
        # different (uncached) counter sector: the fetch must happen.
        res = placed(mee.on_read_miss, 1, 32 * 128, 32 * 128)
        assert "ctr" in kinds(res)


class TestDualGranularityMAC:
    def test_stream_predicted_read_fetches_chunk_mac(self):
        mee = make_mee(Scheme.SHM)
        res = placed(mee.on_read_miss, 0, 0, 0)
        mac = [r for r in res if r.kind == "mac"]
        assert len(mac) == 1 and mac[0].size == 32

    def test_chunk_mac_uses_chunk_key_space(self):
        mee = make_mee(Scheme.SHM)
        mee.on_read_miss(0, 0, 0)
        assert any(
            line.key >= CHUNK_MAC_KEY_BASE
            for lines in mee.caches.mac._sets for line in lines.values()
        )

    def test_random_verdict_flips_to_block_macs(self):
        mee = make_mee(Scheme.SHM)
        # 32 accesses to the same block -> RANDOM verdict.
        for i in range(32):
            mee.on_read_miss(i, 0, 0)
        assert mee.streaming.predict(0) is Pattern.RANDOM

    def test_stream_verdict_with_writes_updates_chunk_mac(self):
        mee = make_mee(Scheme.SHM)
        for block in range(32):
            mee.on_writeback(block, block * 128, block * 128)
        # Verdict STREAM: chunk MAC dirty, block MACs cleaned.
        flushed = placed(mee.flush)
        mac_writes = [r for r in flushed if r.kind == "mac" and r.is_write]
        total_mac_bytes = sum(r.size for r in mac_writes)
        # Only the chunk-MAC sector (32 B) remains dirty, not 8 block
        # MAC sectors (256 B).
        assert total_mac_bytes <= 64

    def test_random_mispredict_readonly_refetches_touched_block_macs(self):
        mee = make_mee(Scheme.SHM)
        mee.on_host_copy(0, 64 * KB, at_init=True)  # read-only region
        # Hit two distant blocks of the chunk repeatedly: RANDOM verdict.
        mispred_sectors = 0
        for i in range(32):
            block_off = 0 if i % 2 == 0 else 20 * 128
            res = placed(mee.on_read_miss, i, block_off, block_off)
            mispred_sectors += sum(
                1 for r in res if r.kind == "mispred"
            )
        # Table III row 2, bounded to the touched blocks: the two
        # touched blocks live in two distinct MAC sectors.
        assert mispred_sectors == 2

    def test_random_mispredict_wide_window_refetches_more(self):
        mee = make_mee(Scheme.SHM)
        mee.on_host_copy(0, 64 * KB, at_init=True)
        # Touch 31 of 32 blocks: still RANDOM, but nearly every MAC
        # sector was used under the chunk MAC and must be re-fetched.
        mispred_sectors = 0
        for i in range(31):
            res = placed(mee.on_read_miss, i, i * 128, i * 128)
            mispred_sectors += sum(1 for r in res if r.kind == "mispred")
        res = placed(mee.on_read_miss, 32, 0, 0)  # 32nd access, duplicate block
        mispred_sectors += sum(1 for r in res if r.kind == "mispred")
        assert mispred_sectors == 8

    def test_update_both_policy_writes_both_macs(self):
        mee = make_mee(Scheme.SHM, mac_conflict_policy="update_both")
        mee.on_writeback(0, 0, 0)
        flushed = placed(mee.flush)
        mac_bytes = sum(r.size for r in flushed if r.kind == "mac" and r.is_write)
        assert mac_bytes >= 64  # block MAC sector + chunk MAC sector


class TestOracle:
    def test_oracle_init_uses_profile(self):
        from repro.common.types import Pattern as P
        from repro.core.mee import TruthProvider

        class FakeTruth(TruthProvider):
            def readonly_regions(self, partition, kernel):
                return [0]

            def first_phase_patterns(self, partition):
                return {0: P.RANDOM}

        config = SimConfig().with_scheme(Scheme.SHM_UPPER_BOUND)
        mapper = AddressMapper(12, 256)
        mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter(),
                                     truth=FakeTruth())
        mee.on_kernel_boundary(0)
        assert mee.readonly.predict(0)
        assert mee.streaming.predict(0) is P.RANDOM
