"""Configuration defaults: Tables V, VI, VIII and IX."""

import pytest

from repro.common.config import (
    CacheConfig,
    DetectorConfig,
    GPUConfig,
    SimConfig,
    scheme_config,
)
from repro.common.types import Scheme


class TestCacheConfig:
    def test_mdc_geometry_table6(self):
        cfg = CacheConfig(size_bytes=2048)
        assert cfg.num_blocks == 16  # 2 KB of 128 B lines
        assert cfg.num_sets == 4  # 4-way
        assert cfg.sectors_per_block == 4

    def test_l2_bank_geometry_table5(self):
        gpu = GPUConfig()
        assert gpu.l2_bank_size == 128 * 1024
        assert gpu.l2_banks_per_partition == 2
        assert gpu.total_l2_bytes == 3 * 1024 * 1024  # 3 MB total
        assert gpu.l2_mshr_entries == 192
        assert gpu.l2_mshr_merge == 16

    def test_twelve_partitions(self):
        assert GPUConfig().num_partitions == 12

    def test_bandwidth_336_gbps(self):
        gpu = GPUConfig()
        total = gpu.dram_bytes_per_cycle * gpu.num_partitions
        assert total == pytest.approx(336e9 / 1506e6, rel=1e-6)


class TestDetectorConfig:
    def test_tracker_is_71_bits(self):
        # Section V-A: 20 tag + 1 write + 32 counters + 5 + 13 = 71.
        assert DetectorConfig().tracker_storage_bits() == 71

    def test_partition_storage(self):
        cfg = DetectorConfig()
        # 1024 + 2048 bit-vector bits + 8 trackers x 71 bits.
        assert cfg.partition_storage_bits() == 1024 + 2048 + 8 * 71

    def test_total_hardware_overhead_table9(self):
        # 12 partitions, ~5,460 B total (the paper's 5.33 KB).
        cfg = DetectorConfig()
        total_bytes = cfg.partition_storage_bits() / 8 * 12
        assert total_bytes == pytest.approx(5460, abs=10)

    def test_blocks_per_chunk(self):
        assert DetectorConfig().blocks_per_chunk == 32

    def test_defaults_match_table9(self):
        cfg = DetectorConfig()
        assert cfg.readonly_entries == 1024
        assert cfg.stream_entries == 2048
        assert cfg.num_trackers == 8
        assert cfg.monitor_accesses == 32
        assert cfg.timeout_cycles == 6000


class TestSchemeConfig:
    def test_naive_uses_physical_unsectored_metadata(self):
        cfg = scheme_config(Scheme.NAIVE)
        assert not cfg.local_metadata
        assert not cfg.sectored_counters
        assert not cfg.common_counters
        assert not cfg.readonly_optimization
        assert not cfg.dual_granularity_mac

    def test_common_ctr_is_naive_plus_common_counters(self):
        cfg = scheme_config(Scheme.COMMON_CTR)
        assert not cfg.local_metadata
        assert cfg.common_counters

    def test_pssm_uses_local_sectored_metadata(self):
        cfg = scheme_config(Scheme.PSSM)
        assert cfg.local_metadata
        assert cfg.sectored_counters
        assert not cfg.readonly_optimization

    def test_shm_enables_both_optimizations(self):
        cfg = scheme_config(Scheme.SHM)
        assert cfg.local_metadata
        assert cfg.readonly_optimization
        assert cfg.dual_granularity_mac
        assert not cfg.common_counters
        assert not cfg.l2_victim_cache

    def test_shm_readonly_keeps_block_macs(self):
        cfg = scheme_config(Scheme.SHM_READONLY)
        assert cfg.readonly_optimization
        assert not cfg.dual_granularity_mac

    def test_shm_cctr_adds_common_counters(self):
        cfg = scheme_config(Scheme.SHM_CCTR)
        assert cfg.readonly_optimization and cfg.common_counters

    def test_shm_vl2_enables_victim_cache(self):
        cfg = scheme_config(Scheme.SHM_VL2)
        assert cfg.l2_victim_cache
        assert cfg.victim_missrate_threshold == pytest.approx(0.90)

    def test_upper_bound_uses_oracle_unlimited_detectors(self):
        cfg = scheme_config(Scheme.SHM_UPPER_BOUND)
        assert cfg.oracle_detectors
        assert cfg.detectors.unlimited

    def test_unprotected_is_not_secure(self):
        assert not scheme_config(Scheme.UNPROTECTED).is_secure
        assert scheme_config(Scheme.SHM).is_secure

    def test_overrides(self):
        cfg = scheme_config(Scheme.SHM, mac_conflict_policy="update_both")
        assert cfg.mac_conflict_policy == "update_both"

    def test_default_mac_is_8_bytes(self):
        assert scheme_config(Scheme.SHM).mac_size == 8


class TestSimConfig:
    def test_with_scheme_replaces_only_scheme(self):
        cfg = SimConfig()
        other = cfg.with_scheme(Scheme.NAIVE)
        assert other.scheme.scheme is Scheme.NAIVE
        assert other.gpu is cfg.gpu
        assert cfg.scheme.scheme is Scheme.SHM  # original untouched
