"""Ablations: MDC capacity and chunk-size design-space sweeps.

The paper fixes the MDCs at 2 KB each (Table VI) and the chunk size at
4 KB with K = 32 (Section IV-C).  These sweeps show both choices sit on
sensible points of their curves.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_overheads
from repro.sim.stats import mean

from conftest import once

WORKLOADS = ["fdtd2d", "kmeans", "bfs", "histo"]


def test_ablation_mdc_size(benchmark, runner):
    result = once(benchmark, run_experiment, "ablation_mdc_size", runner,
                  WORKLOADS)
    print("\n" + format_overheads(
        result, title="Ablation: MDC capacity (PSSM, per-partition)"
    ))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}
    # Bigger metadata caches never hurt.
    assert avg["mdc_2kb"] >= avg["mdc_1kb"] - 0.005
    assert avg["mdc_8kb"] >= avg["mdc_2kb"] - 0.005


def test_ablation_chunk_size(benchmark, runner):
    result = once(benchmark, run_experiment, "ablation_chunk_size", runner,
                  WORKLOADS)
    print("\n" + format_overheads(
        result, title="Ablation: dual-granularity chunk size (SHM)"
    ))
    avg = {label: mean(series.values())
           for label, series in result.series.items()}
    # All chunk sizes function; the paper's 4 KB is competitive
    # (within half a point of the best size on average).
    best = max(avg.values())
    assert avg["chunk_4kb"] >= best - 0.005
