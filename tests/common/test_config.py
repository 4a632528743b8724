"""Configuration defaults: Tables V, VI, VIII and IX."""

from dataclasses import replace
from functools import partial

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

    @pytest.mark.parametrize("field", ["l2_mshr_entries", "l2_mshr_merge"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_mshr_geometry_below_one(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1"):
            GPUConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} "):
            replace(GPUConfig(), **{field: value})

    def test_accepts_the_smallest_mshr_geometry(self):
        gpu = GPUConfig(l2_mshr_entries=1, l2_mshr_merge=1)
        assert (gpu.l2_mshr_entries, gpu.l2_mshr_merge) == (1, 1)


def _rejected(config_type, match: str, **fields) -> None:
    """``fields`` are refused, both at construction and through
    ``dataclasses.replace``, with a ValueError matching ``match``."""
    with pytest.raises(ValueError, match=match):
        config_type(**fields)
    with pytest.raises(ValueError, match=match):
        replace(config_type(), **fields)


#: A 2 KB cache of the default geometry, for ``_rejected``.
_CACHE = partial(CacheConfig, size_bytes=2048)


class TestCacheGeometry:
    """Cache geometries the sectored caches cannot run are refused
    with an error that names the field, at construction and through
    ``dataclasses.replace``."""

    @pytest.mark.parametrize("field", ["ways", "mshr_entries",
                                       "mshr_merge"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_counts_below_one(self, field, value):
        _rejected(_CACHE, f"^{field} must be at least 1, got {value}$",
                  **{field: value})

    @pytest.mark.parametrize("value", [0, 64, 256])
    def test_rejects_a_block_size_other_than_the_line(self, value):
        _rejected(_CACHE, f"^block_size must be 128, got {value}$",
                  block_size=value)

    @pytest.mark.parametrize("value", [0, 16, 64])
    def test_rejects_a_sector_size_other_than_the_sector(self, value):
        _rejected(_CACHE, f"^sector_size must be 32, got {value}$",
                  sector_size=value)

    @pytest.mark.parametrize("fields", [
        {"size_bytes": 0},
        {"size_bytes": 100},
        {"size_bytes": 4 * 128 - 1},
        {"size_bytes": 1024, "ways": 16},
        {"size_bytes": -128, "ways": 1},
    ])
    def test_rejects_a_size_smaller_than_one_set(self, fields):
        _rejected(_CACHE, "^size_bytes must hold one set of ways lines",
                  **fields)

    def test_accepts_the_edges(self):
        cfg = CacheConfig(size_bytes=128, ways=1, mshr_entries=1,
                          mshr_merge=1)
        assert (cfg.num_sets, cfg.sectors_per_block) == (1, 4)
        assert CacheConfig(size_bytes=512, ways=4).num_sets == 1

    def test_every_cache_the_experiments_and_tests_build_still_builds(self):
        """The 1, 2 and 8 KB four-way MDCs of the registered
        experiments, the 128 KB 16-way L2 bank, and the tests' 512 B
        direct-mapped and 1-4 KB two-way caches."""
        from repro.eval.experiments import EXPERIMENTS
        from repro.memory.l2 import PartitionL2

        mdcs = {(cache.size_bytes, cache.ways)
                for spec in EXPERIMENTS.values()
                for job in spec.jobs(None, SimConfig(), 0.1)
                for cache in (job.config.mdc.counter, job.config.mdc.mac,
                              job.config.mdc.bmt)}
        assert mdcs >= {(1024, 4), (2048, 4), (8192, 4)}
        bank = PartitionL2(GPUConfig(), 0).banks[0].cache.config
        assert (bank.size_bytes, bank.ways) == (128 * 1024, 16)
        for size, ways in ((512, 1), (1024, 2), (2048, 2), (4096, 2)):
            assert CacheConfig(size_bytes=size, ways=ways).num_sets >= 1


class TestTopology:
    """The partition, bank and interleave geometry every access's L2
    route is computed from."""

    @pytest.mark.parametrize("field", ["num_partitions",
                                       "l2_banks_per_partition", "l2_ways"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_counts_below_one(self, field, value):
        _rejected(GPUConfig, f"^{field} must be at least 1, got {value}$",
                  **{field: value})

    @pytest.mark.parametrize("fields", [
        {"l2_bank_size": 0},
        {"l2_bank_size": 16 * 128 - 1},
        {"l2_bank_size": 1024, "l2_ways": 16},
        {"l2_bank_size": -128, "l2_ways": 1},
    ])
    def test_rejects_a_bank_smaller_than_one_set(self, fields):
        _rejected(GPUConfig,
                  "^l2_bank_size must hold one set of l2_ways lines", **fields)

    @pytest.mark.parametrize("interleave", [0, -256, 64, 96, 192, 384, 1000])
    def test_rejects_an_interleave_not_a_power_of_two_line_multiple(
            self, interleave):
        _rejected(GPUConfig,
                  "^interleave_bytes must be a power of two of at least 128",
                  interleave_bytes=interleave)

    @pytest.mark.parametrize("fields", [
        {"num_partitions": 820},
        {"num_partitions": 410, "l2_banks_per_partition": 4},
        {"num_partitions": 1639, "l2_banks_per_partition": 1},
    ])
    def test_rejects_more_banks_than_route_codes_tell_apart(self, fields):
        _rejected(GPUConfig,
                  "^num_partitions x l2_banks_per_partition must be at most "
                  "1638 L2 banks", **fields)

    def test_accepts_the_edges(self):
        assert GPUConfig(num_partitions=1, l2_banks_per_partition=1,
                         l2_ways=1, l2_bank_size=128,
                         interleave_bytes=128).total_l2_bytes == 128
        assert GPUConfig(l2_bank_size=16 * 128).l2_bank_size == 2048
        assert GPUConfig(interleave_bytes=4096).interleave_bytes == 4096
        gpu = GPUConfig(num_partitions=819, l2_banks_per_partition=2)
        assert gpu.num_partitions * gpu.l2_banks_per_partition == 1638


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


class TestDetectorSizes:
    """Sizes the detectors cannot run are refused up front with an
    error that names the field, at construction and through
    ``dataclasses.replace``."""

    @pytest.mark.parametrize("field", ["readonly_region_size",
                                       "stream_chunk_size"])
    @pytest.mark.parametrize("value", [0, -128, 64, 100, 4096 + 64])
    def test_rejects_a_size_not_a_positive_block_multiple(self, field, value):
        _rejected(DetectorConfig, f"^{field} must be a positive multiple of "
                  f"the 128 B block, got {value}$", **{field: value})

    @pytest.mark.parametrize("field", ["readonly_entries", "stream_entries"])
    @pytest.mark.parametrize("value", [0, -1024, 3, 1000])
    def test_rejects_predictor_entries_not_a_power_of_two(self, field,
                                                          value):
        _rejected(DetectorConfig, f"^{field} must be a power of two, got "
                  f"{value}$", **{field: value})

    @pytest.mark.parametrize("field", ["monitor_accesses", "timeout_cycles"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_a_window_below_one(self, field, value):
        _rejected(DetectorConfig, f"^{field} must be at least 1, got "
                  f"{value}$", **{field: value})

    def test_rejects_a_negative_tracker_count(self):
        _rejected(DetectorConfig, "^num_trackers must be at least 0, got -1$",
                  num_trackers=-1)

    def test_accepts_the_edges(self):
        cfg = DetectorConfig(readonly_region_size=128, stream_chunk_size=128,
                             readonly_entries=1, stream_entries=1,
                             num_trackers=0, monitor_accesses=1,
                             timeout_cycles=1)
        assert cfg.blocks_per_chunk == 1
        assert DetectorConfig(stream_chunk_size=384).blocks_per_chunk == 3

    def test_every_registered_experiment_and_scheme_still_builds(self):
        """The swept sizes (tracker counts 2/8/32, 2/4/8 KB chunks with
        a chunk-sized MAT window) and ``unlimited=True`` all pass."""
        from repro.core.policies.registry import available_schemes
        from repro.eval.experiments import EXPERIMENTS

        detectors = set()
        for spec in EXPERIMENTS.values():
            for job in spec.jobs(None, SimConfig(), 0.1):
                detectors.add(job.config.scheme.detectors)
                if "detectors" in job.overrides:
                    detectors.add(job.overrides["detectors"])
        detectors.update(scheme_config(name).detectors
                         for name in available_schemes())
        assert {d.num_trackers for d in detectors} >= {2, 8, 32}
        assert {(d.stream_chunk_size, d.monitor_accesses)
                for d in detectors} >= {(2048, 16), (4096, 32), (8192, 64)}
        assert any(d.unlimited for d in detectors)


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
