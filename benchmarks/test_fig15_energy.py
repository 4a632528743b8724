"""Fig. 15: normalised energy per instruction.

Paper: Naive 215.06% -> SHM 106.09% (i.e. 6.09% energy overhead over
the unprotected GPU).
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_table
from repro.sim.stats import mean

from conftest import once


def test_fig15_energy(benchmark, runner):
    result = once(benchmark, run_experiment, "fig15", runner)
    print("\n" + format_table(result, percent=True,
                              title="Fig. 15: normalised energy/instruction"))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}

    # Every secure design costs energy; the ordering tracks Fig. 12.
    for label in avg:
        assert avg[label] > 1.0, label
    assert avg["naive"] > avg["common_ctr"] > avg["pssm"] > avg["shm"]

    # Naive pays a heavy premium; SHM stays within ~10% of baseline.
    assert avg["naive"] > 1.15
    assert avg["shm"] < 1.10

    # SHM recovers most of the energy naive loses (paper: 215% -> 106%).
    recovered = (avg["naive"] - avg["shm"]) / (avg["naive"] - 1.0)
    assert recovered > 0.6
