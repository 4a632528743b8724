"""Ablation: secure-memory overhead vs bandwidth utilisation.

Same address stream, swept intensity: the naive design's pain must grow
with utilisation (the paper's core observation about which workloads
suffer), while SHM stays flat.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_overheads

from conftest import once


def test_ablation_bandwidth_sensitivity(benchmark, runner):
    result = once(benchmark, run_experiment,
                  "ablation_bandwidth_sensitivity", runner, ["kmeans"])
    print("\n" + format_overheads(
        result, title="Ablation: overhead vs bandwidth utilisation (kmeans)"
    ))
    naive = list(result.series["naive"].values())  # ordered by util
    shm = list(result.series["shm"].values())

    # Naive overhead grows monotonically-ish with utilisation and is
    # much worse at the top than at the bottom.
    assert naive[-1] < naive[0]  # normalised IPC falls as util rises
    assert (1 - naive[-1]) > 2.5 * (1 - naive[0])

    # SHM stays within a few points across the whole sweep.
    assert (1 - min(shm)) < 0.08

    # At every point SHM beats naive.
    for n, s in zip(naive, shm):
        assert s > n
