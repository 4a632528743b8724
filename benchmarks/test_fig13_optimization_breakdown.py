"""Fig. 13: contribution of each optimisation, added one at a time.

Paper: PSSM -> +common counters (+1.2pp) -> read-only optimisation
(+2.5pp over PSSM) -> dual-granularity MAC (the bulk) -> SHM+Cctr
(+0.4pp over SHM).
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_overheads
from repro.sim.stats import mean

from conftest import once


def test_fig13_optimization_breakdown(benchmark, runner):
    result = once(benchmark, run_experiment, "fig13", runner)
    print("\n" + format_overheads(result,
                                  title="Fig. 13: optimisation breakdown"))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}

    # Each addition helps (or at worst is neutral) on average.
    assert avg["pssm_ctr"] >= avg["pssm"] - 0.002
    assert avg["shm_readonly"] >= avg["pssm"] - 0.002
    assert avg["shm"] > avg["shm_readonly"]
    assert avg["shm_cctr"] >= avg["shm"] - 0.002

    # The dual-granularity MAC is the largest single contributor,
    # exactly as the paper observes.
    gain_readonly = avg["shm_readonly"] - avg["pssm"]
    gain_dualmac = avg["shm"] - avg["shm_readonly"]
    assert gain_dualmac > gain_readonly

    # The read-only optimisation shows most on read-only-heavy
    # workloads (the paper highlights kmeans).
    ro = result.series["shm_readonly"]
    ps = result.series["pssm"]
    assert ro["kmeans"] >= ps["kmeans"] - 0.001
    assert ro["fdtd2d"] >= ps["fdtd2d"] - 0.001
