"""GPU simulator integration on tiny workloads."""

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.sim.gpu import GPUSimulator


def run(workload, scheme, window=256, **overrides):
    config = SimConfig().with_scheme(scheme, **overrides)
    sim = GPUSimulator(config)
    return sim.run(workload, max_inflight=window)


class TestBasics:
    def test_unprotected_run_completes(self, tiny_streaming):
        result = run(tiny_streaming, Scheme.UNPROTECTED)
        assert result.cycles > 0
        assert result.instructions == tiny_streaming.instructions
        assert result.traffic.data_bytes > 0
        assert result.traffic.metadata_bytes == 0

    def test_secure_run_adds_metadata_traffic(self, tiny_streaming):
        result = run(tiny_streaming, Scheme.PSSM)
        assert result.traffic.metadata_bytes > 0

    def test_secure_never_faster_than_unprotected(self, tiny_streaming):
        base = run(tiny_streaming, Scheme.UNPROTECTED)
        for scheme in (Scheme.NAIVE, Scheme.PSSM, Scheme.SHM):
            secure = run(tiny_streaming, scheme)
            assert secure.cycles >= base.cycles * 0.999

    def test_deterministic(self, tiny_random):
        a = run(tiny_random, Scheme.SHM)
        b = run(tiny_random, Scheme.SHM)
        assert a.cycles == b.cycles
        assert a.traffic.total_bytes == b.traffic.total_bytes

    def test_data_traffic_identical_across_schemes(self, tiny_streaming):
        """Schemes change metadata, never demand data."""
        base = run(tiny_streaming, Scheme.UNPROTECTED)
        pssm = run(tiny_streaming, Scheme.PSSM)
        assert pssm.traffic.data_bytes == base.traffic.data_bytes


class TestTrafficAccounting:
    def test_traffic_matches_channel_stats(self, tiny_streaming):
        config = SimConfig().with_scheme(Scheme.SHM)
        sim = GPUSimulator(config)
        result = sim.run(tiny_streaming, max_inflight=256)
        channel_bytes = sum(ch.stats.total_bytes for ch in sim.channels)
        assert channel_bytes == result.traffic.total_bytes

    def test_utilization_in_unit_range(self, tiny_streaming):
        result = run(tiny_streaming, Scheme.UNPROTECTED)
        assert 0.0 < result.dram_utilization <= 1.0


class TestSchemeOrdering:
    def test_naive_worst_on_streaming(self, tiny_streaming):
        naive = run(tiny_streaming, Scheme.NAIVE)
        pssm = run(tiny_streaming, Scheme.PSSM)
        shm = run(tiny_streaming, Scheme.SHM)
        assert naive.traffic.metadata_bytes > pssm.traffic.metadata_bytes
        assert pssm.traffic.metadata_bytes > shm.traffic.metadata_bytes

    def test_readonly_optimization_kills_counter_traffic(self, tiny_streaming):
        pssm = run(tiny_streaming, Scheme.PSSM)
        shm_ro = run(tiny_streaming, Scheme.SHM_READONLY)
        ro_ctr = shm_ro.traffic.counter_bytes + shm_ro.traffic.bmt_bytes
        pssm_ctr = pssm.traffic.counter_bytes + pssm.traffic.bmt_bytes
        assert ro_ctr < pssm_ctr
        assert shm_ro.shared_counter_reads > 0

    def test_dual_mac_reduces_mac_traffic_on_streams(self, tiny_streaming):
        pssm = run(tiny_streaming, Scheme.PSSM)
        shm = run(tiny_streaming, Scheme.SHM)
        assert shm.traffic.mac_bytes < pssm.traffic.mac_bytes


class TestMultiKernel:
    def test_midrun_copy_degrades_readonly(self, tiny_multikernel):
        """Without the reset API a re-copied input loses its read-only
        status; with it the second kernel keeps the optimisation."""
        plain = run(tiny_multikernel, Scheme.SHM_READONLY)

        # Same workload but using the reset API before kernel 1.
        from tests.conftest import build_tiny_multikernel
        w = build_tiny_multikernel()
        copy_event = w.kernels[1].host_events[0]
        copy_event.kind = "readonly_reset"
        with_api = run(w, Scheme.SHM_READONLY)

        assert with_api.shared_counter_reads > plain.shared_counter_reads
        assert with_api.traffic.counter_bytes <= plain.traffic.counter_bytes

    def test_kernel_count_preserved(self, tiny_multikernel):
        result = run(tiny_multikernel, Scheme.SHM)
        assert result.cycles > 0


class TestVictimCacheScheme:
    def test_vl2_runs_and_accounts(self, tiny_random):
        result = run(tiny_random, Scheme.SHM_VL2)
        assert result.cycles > 0
        # Victim insertions only occur if the miss-rate trigger fired;
        # either way the accounting invariants hold.
        assert result.victim_hits <= result.victim_insertions or \
            result.victim_insertions == 0


class TestPredictionStats:
    def test_stats_populated_with_truth(self, tiny_streaming):
        from repro.sim.runner import Runner
        runner = Runner()
        runner.add_workload(tiny_streaming)
        result = runner.run(tiny_streaming.name, Scheme.SHM)
        assert result.readonly_stats.total > 0
        assert result.streaming_stats.total > 0
        assert result.readonly_stats.accuracy > 0.5
        assert result.streaming_stats.accuracy > 0.5
