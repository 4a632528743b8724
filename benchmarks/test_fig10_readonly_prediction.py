"""Fig. 10: read-only prediction breakdown.

Paper: 89.31% average accuracy; MP_Init dominates the mispredictions
and MP_Aliasing is negligible.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_table
from repro.sim.stats import mean

from conftest import once


def test_fig10_readonly_prediction(benchmark, runner):
    result = once(benchmark, run_experiment, "fig10", runner)
    print("\n" + format_table(result, percent=True,
                              title="Fig. 10: read-only prediction breakdown"))
    correct = result.series["correct"]
    init = result.series["mp_init"]
    aliasing = result.series["mp_aliasing"]

    # Average accuracy in the paper's ballpark (89.3%).
    assert mean(correct.values()) > 0.80

    # Initialisation mispredictions dominate aliasing ones.
    assert mean(init.values()) >= mean(aliasing.values())

    # Aliasing is negligible (the 1024-entry vector is plenty).
    assert mean(aliasing.values()) < 0.05

    # Pure streaming read-only workloads predict near-perfectly.
    assert correct["fdtd2d"] > 0.95
    assert correct["kmeans"] > 0.95
