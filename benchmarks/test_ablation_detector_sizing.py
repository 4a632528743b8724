"""Ablation: MAT count sensitivity (Section IV-C / SHM_upper_bound).

The paper uses 8 MATs per partition and shows (via SHM_upper_bound)
that unlimited trackers buy only ~1.3pp more.  This bench sweeps the
MAT count to show the knee.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_overheads
from repro.sim.stats import mean

from conftest import once

WORKLOADS = ["fdtd2d", "kmeans", "bfs", "histo"]


def test_ablation_detector_sizing(benchmark, runner):
    result = once(benchmark, run_experiment, "ablation_detector_sizing",
                  runner, WORKLOADS)
    print("\n" + format_overheads(
        result, title="Ablation: MAT count (2 / 8 / 32 per partition)"
    ))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}

    # More trackers never hurt meaningfully.
    assert avg["mats_8"] >= avg["mats_2"] - 0.01
    assert avg["mats_32"] >= avg["mats_8"] - 0.01

    # Diminishing returns: 8 -> 32 buys less than 2 -> 8 added, OR both
    # deltas are already in the noise (the paper's point: 8 suffices).
    delta_small = avg["mats_8"] - avg["mats_2"]
    delta_large = avg["mats_32"] - avg["mats_8"]
    assert delta_large <= max(delta_small, 0.01)
