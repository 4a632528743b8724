"""Baseline comparison and the regression gate, including the ISSUE
acceptance check: a synthetic 2x slowdown must be flagged by
``repro bench --compare`` with a nonzero exit."""

import json

import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.compare import (
    STATUS_ADDED,
    STATUS_IMPROVED,
    STATUS_INCOMPARABLE,
    STATUS_OK,
    STATUS_REGRESSION,
    STATUS_REMOVED,
    compare_docs,
    regressions,
)


def doc_with(medians, unit="ns/op"):
    """A minimal-but-schema-valid document with the given medians."""
    benchmarks = {}
    for name, median in medians.items():
        u = unit if isinstance(unit, str) else unit[name]
        benchmarks[name] = {
            "kind": "micro", "unit": u, "units_per_op": 1, "rounds": 1,
            "samples": [median, median],
            "stats": {"min": median, "max": median, "median": median,
                      "mad": 0.0, "mean": median},
        }
    return {
        "bench_format": 1,
        "environment": {"git_sha": "abc", "python": "3", "platform": "t",
                        "cpu_count": 1},
        "config": {"smoke": True, "repeats": 2, "warmup": 0, "rounds": 1,
                   "macro_scale": 0.05},
        "benchmarks": benchmarks,
    }


class TestCompareDocs:
    def test_statuses(self):
        old = doc_with({"a": 100.0, "b": 100.0, "c": 100.0, "gone": 1.0})
        new = doc_with({"a": 110.0, "b": 250.0, "c": 50.0, "fresh": 1.0})
        rows = {r.name: r for r in compare_docs(old, new)}
        assert rows["a"].status == STATUS_OK
        assert rows["b"].status == STATUS_REGRESSION
        assert rows["b"].ratio == pytest.approx(2.5)
        assert rows["c"].status == STATUS_IMPROVED
        assert rows["gone"].status == STATUS_REMOVED
        assert rows["fresh"].status == STATUS_ADDED

    def test_threshold_is_exclusive(self):
        old = doc_with({"a": 100.0})
        new = doc_with({"a": 115.0})  # exactly +15%: not a regression
        assert compare_docs(old, new, 0.15)[0].status == STATUS_OK

    def test_unit_mismatch_is_incomparable(self):
        old = doc_with({"a": 100.0}, unit="ns/op")
        new = doc_with({"a": 100.0}, unit="ms/run")
        assert compare_docs(old, new)[0].status == STATUS_INCOMPARABLE

    def test_regressions_filter(self):
        old = doc_with({"a": 100.0, "b": 100.0})
        new = doc_with({"a": 500.0, "b": 100.0})
        assert [r.name for r in regressions(compare_docs(old, new))] == ["a"]

    def test_rows_sorted_by_name(self):
        old = doc_with({"z": 1.0, "a": 1.0, "m": 1.0})
        rows = compare_docs(old, old)
        assert [r.name for r in rows] == ["a", "m", "z"]


class TestRegressionGateEndToEnd:
    """ISSUE acceptance: inject a synthetic 2x slowdown into one
    benchmark of a real emitted document and watch the CLI gate trip."""

    @pytest.fixture
    def baseline(self, tmp_path):
        doc = bench.run_bench(pattern="micro.hist", repeats=2, warmup=0)
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        return path, doc

    def test_synthetic_2x_slowdown_trips_gate(self, baseline, tmp_path,
                                              capsys):
        path, doc = baseline
        slowed = json.loads(json.dumps(doc))
        entry = slowed["benchmarks"]["micro.hist.record"]
        entry["samples"] = [s * 2 for s in entry["samples"]]
        entry["stats"] = {k: v * 2 for k, v in entry["stats"].items()}
        slow_path = tmp_path / "BENCH_new.json"
        slow_path.write_text(json.dumps(slowed, sort_keys=True))

        assert main(["bench", "--compare", str(path),
                     "--against", str(slow_path)]) == 3
        out = capsys.readouterr().out
        assert "regression" in out
        assert "micro.hist.record" in out

    def test_identical_docs_pass_gate(self, baseline, capsys):
        path, _ = baseline
        assert main(["bench", "--compare", str(path),
                     "--against", str(path)]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_loose_threshold_passes_2x(self, baseline, tmp_path):
        path, doc = baseline
        slowed = json.loads(json.dumps(doc))
        entry = slowed["benchmarks"]["micro.hist.record"]
        entry["samples"] = [s * 2 for s in entry["samples"]]
        entry["stats"] = {k: v * 2 for k, v in entry["stats"].items()}
        slow_path = tmp_path / "BENCH_new.json"
        slow_path.write_text(json.dumps(slowed, sort_keys=True))
        assert main(["bench", "--compare", str(path),
                     "--against", str(slow_path),
                     "--threshold", "1.5"]) == 0


class TestPerCellVerdict:
    """The ISSUE bugfix: the gate must say *which* cells regressed and
    by how much, in the CLI output and the report artifact."""

    def test_delta_property(self):
        rows = compare_docs(doc_with({"a": 100.0}), doc_with({"a": 123.0}))
        assert rows[0].delta == pytest.approx(0.23)
        removed = compare_docs(doc_with({"a": 1.0}), doc_with({}))
        assert removed[0].delta is None

    def test_compare_report_shape(self):
        from repro.perf.compare import compare_report

        rows = compare_docs(doc_with({"a": 100.0, "b": 100.0}),
                            doc_with({"a": 250.0, "b": 101.0}))
        report = compare_report(rows, 0.15, baseline="BENCH_x.json")
        assert report["compare_format"] == 1
        assert report["baseline"] == "BENCH_x.json"
        assert report["regressed"] == ["a"]
        cells = {c["name"]: c for c in report["cells"]}
        assert cells["a"]["status"] == STATUS_REGRESSION
        assert cells["a"]["delta_pct"] == pytest.approx(150.0)
        assert cells["b"]["status"] == STATUS_OK
        assert cells["b"]["old_median"] == 100.0
        json.dumps(report)  # it is the CI artifact

    def test_cli_output_itemizes_regressed_cells(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc_with({"a": 100.0, "b": 100.0})))
        new.write_text(json.dumps(doc_with({"a": 250.0, "b": 101.0})))
        assert main(["bench", "--compare", str(old),
                     "--against", str(new)]) == 3
        out = capsys.readouterr().out
        assert "1 regression(s) beyond the 15% median gate" in out
        assert "a: 100.0 -> 250.0 ns/op (+150.0%)" in out

    def test_report_artifact_written(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc_with({"a": 100.0})))
        new.write_text(json.dumps(doc_with({"a": 300.0})))
        report_path = tmp_path / "compare.json"
        assert main(["bench", "--compare", str(old),
                     "--against", str(new),
                     "--report", str(report_path)]) == 3
        report = json.loads(report_path.read_text())
        assert report["bench_report_format"] == 1
        (one,) = report["reports"]
        assert one["regressed"] == ["a"]
        assert one["cells"][0]["delta_pct"] == pytest.approx(200.0)
