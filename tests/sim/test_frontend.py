"""SM frontend: bounded-window issue (:class:`CompletionWindow`)."""

import pytest

from repro.sim.events import CompletionWindow


class TestIssue:
    def test_issues_at_gap_rate_when_window_free(self):
        f = CompletionWindow(max_inflight=4, gap=10)
        assert f.issue() == 0
        assert f.issue() == 10
        assert f.issue() == 20

    def test_window_full_stalls_on_earliest_completion(self):
        f = CompletionWindow(max_inflight=2, gap=0.001)
        f.issue(); f.complete(100)
        f.issue(); f.complete(200)
        issue = f.issue()  # window full: waits for the first completion
        assert issue == pytest.approx(100, abs=1)
        assert f.stall_cycles > 0

    def test_no_stall_when_completion_already_past(self):
        f = CompletionWindow(max_inflight=1, gap=50)
        f.issue(); f.complete(10)
        assert f.issue() == 50  # ready time dominates

    def test_issue_times_monotonic(self):
        f = CompletionWindow(max_inflight=3, gap=1)
        last = -1.0
        for i in range(50):
            t = f.issue()
            assert t >= last
            last = t
            f.complete(t + (i % 7) * 30)

    def test_drain(self):
        f = CompletionWindow(max_inflight=8, gap=1)
        f.issue(); f.complete(500)
        f.issue(); f.complete(300)
        assert f.drain() == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionWindow(0, 1)
        with pytest.raises(ValueError):
            CompletionWindow(4, 0)


class TestLittlesLaw:
    def test_throughput_bounded_by_window_over_latency(self):
        """With constant latency L and window W, issue rate approaches
        W/L accesses per cycle - the latency-bound regime."""
        latency = 100.0
        f = CompletionWindow(max_inflight=10, gap=0.001)
        t = 0.0
        for _ in range(1000):
            t = f.issue()
            f.complete(t + latency)
        rate = 1000 / t
        assert rate == pytest.approx(10 / latency, rel=0.05)
