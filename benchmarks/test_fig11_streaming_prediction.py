"""Fig. 11: streaming-pattern prediction breakdown.

Paper: 83.36% average accuracy; some benchmarks suffer initialisation
mispredictions, others runtime pattern changes; aliasing is small.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_table
from repro.sim.stats import mean

from conftest import once


def test_fig11_streaming_prediction(benchmark, runner):
    result = once(benchmark, run_experiment, "fig11", runner)
    print("\n" + format_table(result, percent=True,
                              title="Fig. 11: streaming prediction breakdown"))
    correct = result.series["correct"]

    # Streaming workloads predict very well...
    for name in ("fdtd2d", "kmeans", "streamcluster"):
        assert correct[name] > 0.85, name

    # ...while random-dominated ones drag the average down, exactly as
    # in the paper (their worst cases sit around 40-60%).
    assert correct["bfs"] < correct["fdtd2d"]

    # Average in a sane band around the paper's 83%.
    assert 0.55 < mean(correct.values()) <= 1.0

    # Aliasing is a minor contributor overall.
    assert mean(result.series["mp_aliasing"].values()) < 0.10

    # All five categories are reported.
    assert set(result.series) == {
        "correct", "mp_init", "mp_runtime_read_only",
        "mp_runtime_non_read_only", "mp_aliasing",
    }
