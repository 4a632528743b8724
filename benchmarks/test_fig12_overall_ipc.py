"""Fig. 12: normalised IPC of the main secure-memory designs.

Paper averages (overhead = 1 - normalised IPC): Naive 53.9%,
Common_ctr 49.4%, PSSM 18.6%, SHM 8.09%, SHM_upper_bound 6.76%.
Absolute levels depend on the memory-system substrate; the bench
asserts the ordering and the rough factors (see EXPERIMENTS.md).
"""

from repro.common.types import Scheme
from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_overheads
from repro.sim.stats import mean

from conftest import once


def test_fig12_overall_ipc(benchmark, runner):
    result = once(benchmark, run_experiment, "fig12", runner)
    print("\n" + format_overheads(result,
                                  title="Fig. 12: performance overheads"))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}

    # Ordering: every optimisation step helps on average.
    assert avg["naive"] < avg["common_ctr"] < avg["pssm"] < avg["shm"]
    assert avg["shm_upper_bound"] >= avg["shm"] - 0.005

    # Rough factors: naive loses a lot; SHM keeps overhead low.
    assert 1 - avg["naive"] > 0.20
    assert 1 - avg["shm"] < 0.10
    # SHM at least halves PSSM's remaining overhead on average.
    assert (1 - avg["shm"]) < 0.7 * (1 - avg["pssm"])
    # The realised design sits close to the idealised upper bound
    # (the paper's 8.09% vs 6.76% point).
    assert avg["shm_upper_bound"] - avg["shm"] < 0.05

    # Per-workload: bandwidth-hungry workloads show the largest naive
    # pain, as in the paper.
    naive = result.series["naive"]
    assert naive["fdtd2d"] < naive["atax"]
    assert naive["lbm"] < naive["atax"]
