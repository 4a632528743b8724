"""The metric folds: tail percentile rule, Fig. 12 fidelity error, and
agreement between BENCHMARK.json and the metric tables."""

import json
from pathlib import Path

import pytest

from perfbench.checks import PAPER_FIG12_OVERHEAD_PCT, fig12_err_pp
from perfbench.metrics import END_TO_END, PER_LAYER, tail

ROOT = Path(__file__).resolve().parents[2]


def test_tail_is_highest_order_statistic_with_ten_beyond():
    values = list(range(80, 0, -1))  # unsorted on purpose
    value, pct = tail(values)
    assert value == 70  # 10 values (71..80) lie beyond it
    assert pct == pytest.approx(87.5)


def test_tail_of_twenty_cells_is_the_tenth():
    value, pct = tail([float(v) for v in range(1, 21)])
    assert value == 10.0
    assert pct == pytest.approx(50.0)


def test_tail_needs_more_than_ten_samples():
    assert tail(range(11)) == (0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        tail(range(10))


def test_fig12_err_pp_is_mean_absolute_gap_to_paper():
    # Every scheme measured at exactly 10 % overhead on two workloads.
    series = {s: {"a": 0.9, "b": 0.9} for s in PAPER_FIG12_OVERHEAD_PCT}
    expected = sum(abs(10.0 - p) for p in PAPER_FIG12_OVERHEAD_PCT.values())
    assert fig12_err_pp(series) == pytest.approx(expected / 5)


def test_fig12_err_pp_is_zero_when_matching_the_paper():
    series = {s: {"a": 1 - p / 100, "b": 1 - p / 100}
              for s, p in PAPER_FIG12_OVERHEAD_PCT.items()}
    assert fig12_err_pp(series) == pytest.approx(0.0, abs=1e-9)


def test_fig12_err_pp_requires_every_scheme():
    with pytest.raises(KeyError):
        fig12_err_pp({"naive": {"a": 0.5}})


def test_paper_reference_matches_experiments_md():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for pct in PAPER_FIG12_OVERHEAD_PCT.values():
        assert f"{pct} %" in text


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    from perfbench.run import WORKLOAD_NAMES
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    assert "setup_s" in {m.name for m in END_TO_END}
