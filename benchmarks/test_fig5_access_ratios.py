"""Fig. 5: fraction of off-chip accesses to streaming / read-only data.

Paper shape: fdtd2d is near-perfect (99.87% read-only, 99.35%
streaming); matrix/streaming kernels (atax, mvt, kmeans, streamcluster)
are high on both; graph/scatter workloads (bfs, mri-gridding) are low.
"""

from repro.eval.experiments import run_experiment
from repro.eval.reporting import format_table

from conftest import once


def test_fig5_access_ratios(benchmark, runner):
    result = once(benchmark, run_experiment, "fig5", runner)
    print("\n" + format_table(result, percent=True,
                              title="Fig. 5: streaming / read-only ratios"))
    stream = result.series["streaming"]
    readonly = result.series["read_only"]

    # fdtd2d: the paper's flagship streaming + read-only case.
    assert stream["fdtd2d"] > 0.95
    assert readonly["fdtd2d"] > 0.95

    # Streaming-heavy suite members.
    for name in ("atax", "mvt", "kmeans", "streamcluster"):
        assert stream[name] > 0.8, name
        assert readonly[name] > 0.8, name

    # Random/scatter workloads sit at the other end.
    assert stream["bfs"] < 0.4
    assert stream["mri-gridding"] < 0.55

    # The suite spans the spectrum (the point of Fig. 5).
    assert max(stream.values()) - min(stream.values()) > 0.5
    assert max(readonly.values()) - min(readonly.values()) > 0.3
