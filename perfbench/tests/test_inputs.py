"""Seed plumbing, output invariants, digests and speed normalisation."""

import pytest

from repro.common.types import Scheme, TrafficCounters
from repro.sim.stats import L2Stats, RunResult
from repro.workloads.multitenant import contention_spec, phase_churn_spec

from perfbench import speed
from perfbench.checks import digest, invariant_errors
from perfbench.workloads import churn_specs


def test_seed_zero_is_the_learned_ablation_default():
    specs = churn_specs(0)
    assert specs[:-1] == [phase_churn_spec(c) for c in (0.0, 0.25, 0.5, 1.0)]
    assert specs[-1] == contention_spec(4)


def test_seeds_change_the_suites_not_their_shape():
    a, b = churn_specs(1), churn_specs(2)
    assert a == churn_specs(1)
    assert [s["seed"] for s in a] != [s["seed"] for s in b]
    assert [s["name"] for s in a] == [s["name"] for s in b]


def _result(cycles=100.0, data=1000, ctr=10, mac=20, bmt=5):
    return RunResult(
        workload="w", scheme=Scheme.SHM, cycles=cycles, instructions=10,
        traffic=TrafficCounters(data_bytes=data, counter_bytes=ctr,
                                mac_bytes=mac, bmt_bytes=bmt),
        l2=L2Stats(accesses=10, misses=5), dram_utilization=0.5)


def test_invariants_accept_a_sound_cell():
    assert invariant_errors(_result(cycles=110.0), _result()) == []


@pytest.mark.parametrize("cycles", [0.0, 90.0])
def test_invariants_reject_bad_cycles_and_ipc(cycles):
    # 0 cycles; or normalised IPC 100/90 > 1.05.
    assert invariant_errors(_result(cycles=cycles), _result())


def test_digest_ignores_order_but_not_content():
    docs = [("b", "2"), ("a", "1")]
    assert digest(docs) == digest(reversed(docs))
    assert digest(docs) != digest([("a", "1"), ("b", "3")])


def test_speed_normalisation_divides_out_a_slow_host():
    meter = speed.SpeedMeter()
    ref = speed.REFERENCE_KERNEL_S
    # Four samples at twice the reference time: the host ran at half
    # speed, so 10 s of raw time (minus the samples) reads as half.
    meter.samples = [2 * ref] * 4
    assert meter.factor(0, 4) == pytest.approx(0.5)
    assert meter.interval(0.0, 10.0, 0, 4) == pytest.approx(
        (10.0 - 8 * ref) * 0.5)
    assert speed.SpeedMeter(enabled=False).interval(0.0, 10.0, 0, 0) == 10.0
