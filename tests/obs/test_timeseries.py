"""Cycle-window samplers: bucketing, derived rates, exact totals."""

import pytest

from repro.obs.timeseries import KIND_COLUMNS, WindowedSeries


def make(window=100.0, partitions=2, run="w/s"):
    return WindowedSeries(window, partitions, run=run)


class TestConstruction:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedSeries(0.0, 1)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            WindowedSeries(100.0, 0)


class TestBucketing:
    def test_events_land_in_their_window(self):
        s = make()
        s.traffic(10.0, "data", 128)
        s.traffic(150.0, "data", 64)
        rows = s.finalize()
        assert [r["window"] for r in rows] == [0, 1]
        assert rows[0]["data_bytes"] == 128
        assert rows[1]["data_bytes"] == 64
        assert rows[0]["start_cycle"] == 0.0
        assert rows[0]["end_cycle"] == 100.0

    def test_window_boundary_goes_to_upper_window(self):
        s = make()
        s.traffic(100.0, "data", 1)
        assert s.finalize()[0]["window"] == 1

    def test_out_of_order_events(self):
        # Completions overtake issues in the simulator; rows must come
        # out sorted regardless of arrival order.
        s = make()
        s.traffic(950.0, "ctr", 64)
        s.traffic(50.0, "data", 128)
        s.traffic(450.0, "mac", 8)
        assert [r["window"] for r in s.finalize()] == [0, 4, 9]

    def test_negative_cycle_clamps_to_window_zero(self):
        s = make()
        s.traffic(-5.0, "data", 32)
        assert s.finalize()[0]["window"] == 0

    def test_all_kinds_have_columns(self):
        s = make()
        for kind in KIND_COLUMNS:
            s.traffic(0.0, kind, 10)
        row = s.finalize()[0]
        for column in KIND_COLUMNS.values():
            assert row[column] == 10

    def test_unknown_kind_counts_as_data(self):
        s = make()
        s.traffic(0.0, "mystery", 7)
        assert s.finalize()[0]["data_bytes"] == 7


class TestDerivedRates:
    def test_l2_miss_rate(self):
        s = make()
        s.l2_access(0.0, miss=True)
        s.l2_access(0.0, miss=False)
        s.l2_access(0.0, miss=False)
        s.l2_access(0.0, miss=True)
        row = s.finalize()[0]
        assert row["l2_accesses"] == 4
        assert row["l2_misses"] == 2
        assert row["l2_miss_rate"] == pytest.approx(0.5)

    def test_mdc_hit_rate(self):
        s = make()
        s.mdc_access(0.0, hit=True)
        s.mdc_access(0.0, hit=True)
        s.mdc_access(0.0, hit=False)
        s.mdc_access(0.0, hit=True)
        assert s.finalize()[0]["mdc_hit_rate"] == pytest.approx(0.75)

    def test_victim_probes(self):
        s = make()
        s.victim_probe(0.0, hit=True)
        s.victim_probe(0.0, hit=False)
        row = s.finalize()[0]
        assert row["victim_probes"] == 2
        assert row["victim_hits"] == 1

    def test_avg_read_latency(self):
        s = make()
        s.read_latency(0.0, 100.0)
        s.read_latency(0.0, 300.0)
        assert s.finalize()[0]["avg_read_latency"] == pytest.approx(200.0)

    def test_stall_attributed_to_start_window(self):
        s = make()
        s.stall(90.0, 140.0)
        rows = s.finalize()
        assert len(rows) == 1
        assert rows[0]["window"] == 0
        assert rows[0]["stall_cycles"] == pytest.approx(50.0)

    def test_dram_utilization(self):
        s = make(window=100.0, partitions=2)
        # Partition 0 busy half the window, partition 1 idle.
        s.dram(0, arrival=0.0, start=10.0, busy_until=60.0)
        row = s.finalize()[0]
        assert row["dram_utilization"][0] == pytest.approx(0.5)
        assert row["dram_utilization"][1] == 0.0
        assert row["dram_utilization_mean"] == pytest.approx(0.25)
        assert row["dram_wait"][0] == pytest.approx(10.0)
        assert row["dram_requests"] == [1, 0]

    def test_utilization_mean_sums_left_to_right(self):
        # 1.0 + 1e-16 rounds back to 1.0, twice; the compensated sum()
        # of Python 3.12+ reaches 1.0000000000000002.
        s = make(window=1.0, partitions=3)
        s.dram(0, arrival=0.0, start=0.0, busy_until=1.0)
        s.dram(1, arrival=0.0, start=0.0, busy_until=1e-16)
        s.dram(2, arrival=0.0, start=0.0, busy_until=1e-16)
        row = s.finalize()[0]
        assert row["dram_utilization"] == [1.0, 1e-16, 1e-16]
        assert row["dram_utilization_mean"] == 1.0 / 3

    def test_utilization_capped_at_one(self):
        s = make(window=100.0, partitions=1)
        s.dram(0, arrival=0.0, start=0.0, busy_until=250.0)
        assert s.finalize()[0]["dram_utilization"] == [1.0]

    def test_empty_window_defaults(self):
        s = make()
        s.l2_access(0.0, miss=False)  # touch one row, rates with 0 denominators
        row = s.finalize()[0]
        assert row["mdc_hit_rate"] == 0.0
        assert row["avg_read_latency"] == 0.0


class TestKernelAttribution:
    def test_kernel_tagged_at_row_creation(self):
        s = make()
        s.traffic(0.0, "data", 1)
        s.set_kernel(1)
        s.traffic(150.0, "data", 1)
        rows = s.finalize()
        assert rows[0]["kernel"] == 0
        assert rows[1]["kernel"] == 1


class TestTotals:
    def test_totals_sum_across_windows(self):
        s = make()
        s.traffic(10.0, "data", 100)
        s.traffic(250.0, "data", 50)
        s.traffic(510.0, "ctr", 64)
        totals = s.totals()
        assert totals["data_bytes"] == 150
        assert totals["ctr_bytes"] == 64
        assert totals["mac_bytes"] == 0

    def test_columns_pivot(self):
        s = make()
        s.traffic(10.0, "data", 100)
        s.traffic(250.0, "data", 50)
        cols = s.columns()
        assert cols["data_bytes"] == [100, 50]
        assert cols["window"] == [0, 2]

    def test_empty_series(self):
        s = make()
        assert s.finalize() == []
        assert s.columns() == {}
        assert s.totals() == {c: 0 for c in KIND_COLUMNS.values()}
