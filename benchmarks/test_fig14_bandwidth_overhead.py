"""Fig. 14: security-metadata bandwidth normalised to data bandwidth.

Paper averages: Naive 189.07%, PSSM 17.1%, SHM_readOnly 13.2%,
SHM 5.95%; fdtd2d under SHM reaches 0.78%.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_table
from repro.sim.stats import mean

from conftest import once


def test_fig14_bandwidth_overhead(benchmark, runner):
    result = once(benchmark, run_experiment, "fig14", runner)
    print("\n" + format_table(result, percent=True,
                              title="Fig. 14: metadata bandwidth overhead"))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}

    # Ordering across the designs.
    assert avg["naive"] > avg["common_ctr"] > avg["pssm"]
    assert avg["pssm"] > avg["shm_readonly"] > avg["shm"]

    # Naive metadata traffic is of the same order as the data itself
    # (the paper's 1.89x average; random workloads far exceed 1x).
    assert avg["naive"] > 0.5
    assert max(result.series["naive"].values()) > 1.0

    # SHM squeezes the average to a small fraction (the paper's 5.95%;
    # short traces over-weight the detectors' one-time warm-up costs,
    # so allow head-room at reduced REPRO_BENCH_SCALE).
    assert avg["shm"] < 0.16
    # ...and on the streaming majority of the suite it is tiny.
    below_5pct = sum(1 for v in result.series["shm"].values() if v < 0.05)
    assert below_5pct >= len(result.series["shm"]) // 2

    # fdtd2d under SHM: near-zero, the paper's flagship number.
    assert result.series["shm"]["fdtd2d"] < 0.02
