"""Run statistics: geomean robustness, latency percentiles."""

import math

import pytest

from repro.sim.stats import LatencyStats, geomean, mean


class TestGeomean:
    def test_simple(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_identity(self):
        assert geomean([5.0]) == pytest.approx(5.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_nonpositive_values_dropped(self):
        assert geomean([0.0, -3.0, 4.0, 9.0]) == pytest.approx(6.0)

    def test_no_overflow_on_long_large_lists(self):
        # A raw product of 10k values around 1e300 overflows to inf;
        # the log-sum formulation must not.
        values = [1e300] * 10_000
        result = geomean(values)
        assert math.isfinite(result)
        assert result == pytest.approx(1e300, rel=1e-6)

    def test_no_underflow_on_long_small_lists(self):
        values = [1e-300] * 10_000
        result = geomean(values)
        assert result > 0.0
        assert result == pytest.approx(1e-300, rel=1e-6)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0


class TestOrderedSums:
    """Means sum left to right on every Python version: ``sum()``
    compensates float rounding since 3.12."""

    def test_mean(self):
        # 1.0 + 1e-16 rounds back to 1.0, twice; a compensated sum
        # reaches 1.0000000000000002.
        assert mean([1.0, 1e-16, 1e-16]) == 1.0 / 3
        assert mean(iter([1.0, 1e-16, 1e-16])) == 1.0 / 3
        assert mean([]) == 0.0

    def test_geomean(self):
        a, b = math.exp(2.0), 1 + 2.0 ** -52
        left_to_right = math.log(a) + math.log(b) + math.log(b)
        assert geomean([a, b, b]) == math.exp(left_to_right / 3)


class TestLatencyPercentiles:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.average == 0.0
        assert stats.p50 == 0.0
        assert stats.p95 == 0.0

    def test_record_feeds_histogram(self):
        stats = LatencyStats()
        for lat in (100.0, 200.0, 400.0):
            stats.record(lat)
        assert stats.count == 3
        assert stats.histogram.count == 3
        assert stats.max_cycles == 400.0
        assert stats.average == pytest.approx(700.0 / 3)

    def test_percentiles_bracket_the_data(self):
        stats = LatencyStats()
        for i in range(1, 1001):
            stats.record(float(i))
        # Within one log bucket (~19 %) of the true order statistic.
        assert stats.p50 == pytest.approx(500.0, rel=0.2)
        assert stats.p95 == pytest.approx(950.0, rel=0.2)
        assert stats.p99 == pytest.approx(990.0, rel=0.2)
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max_cycles

    def test_single_sample_is_exact(self):
        stats = LatencyStats()
        stats.record(123.0)
        assert stats.p50 == 123.0
        assert stats.p99 == 123.0

    def test_batches_match_per_value_records_bit_for_bit(self):
        # Sums whose rounding depends on the order of the additions:
        # past 1e16 a float is a multiple of 2, so adding 1.0, 1.0 and
        # 3.3 one at a time gives 1e16 + 4, their sum added at once
        # 1e16 + 6.
        batches = [[0.5, 1e16], [1.0, 1.0, 3.3], [],
                   [1e-3, 2.0 ** 60, 7.25], [0.1, 0.2, 0.3]]
        one, batched = LatencyStats(), LatencyStats()
        for batch in batches:
            for latency in batch:
                one.record(latency)
            batched.record_batch(batch)
            assert ((batched.total_cycles, batched.count, batched.max_cycles)
                    == (one.total_cycles, one.count, one.max_cycles))
            assert batched.histogram.state() == one.histogram.state()

    def test_batch_keeps_its_totals_apart_from_the_histogram(self):
        stats = LatencyStats(total_cycles=5.0, count=1, max_cycles=5.0)
        stats.record_batch([2.0, 3.0])
        assert (stats.total_cycles, stats.count, stats.max_cycles) \
            == (10.0, 3, 5.0)
        assert (stats.histogram.total, stats.histogram.count,
                stats.histogram.max_value) == (5.0, 2, 3.0)
