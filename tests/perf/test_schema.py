"""BENCH document schema validation: accepted shapes and rejections."""

import copy

import pytest

from repro.perf.schema import BenchSchemaError, main, validate_bench


def make_doc():
    return {
        "bench_format": 1,
        "environment": {"git_sha": "abc123", "python": "3.11.0",
                        "platform": "test", "cpu_count": 4},
        "config": {"smoke": True, "repeats": 2, "warmup": 0,
                   "rounds": 1, "macro_scale": 0.05},
        "benchmarks": {
            "micro.x": {
                "kind": "micro", "unit": "ns/op", "units_per_op": 512,
                "rounds": 1, "samples": [10.0, 12.0],
                "stats": {"min": 10.0, "max": 12.0, "median": 11.0,
                          "mad": 1.0, "mean": 11.0},
            },
        },
    }


class TestAccept:
    def test_valid_doc(self):
        doc = make_doc()
        assert validate_bench(doc) is doc

    @pytest.mark.parametrize("dirty", [True, False, None])
    def test_git_dirty_is_an_optional_bool(self, dirty):
        doc = make_doc()
        doc["environment"]["git_dirty"] = dirty
        assert validate_bench(doc) is doc


class TestReject:
    def check_rejected(self, mutate, fragment):
        doc = make_doc()
        mutate(doc)
        with pytest.raises(BenchSchemaError, match=fragment):
            validate_bench(doc)

    def test_wrong_format(self):
        self.check_rejected(
            lambda d: d.update(bench_format=2), "bench_format")

    def test_not_an_object(self):
        with pytest.raises(BenchSchemaError):
            validate_bench([1, 2])

    def test_missing_environment_key(self):
        self.check_rejected(
            lambda d: d["environment"].pop("git_sha"), "git_sha")

    def test_git_dirty_must_be_a_bool(self):
        self.check_rejected(
            lambda d: d["environment"].update(git_dirty="yes"), "git_dirty")

    def test_bool_is_not_an_int(self):
        self.check_rejected(
            lambda d: d["environment"].update(cpu_count=True), "cpu_count")

    def test_bad_repeats(self):
        self.check_rejected(
            lambda d: d["config"].update(repeats=0), "repeats")

    def test_empty_benchmarks(self):
        self.check_rejected(
            lambda d: d.update(benchmarks={}), "benchmarks")

    def test_bad_kind(self):
        self.check_rejected(
            lambda d: d["benchmarks"]["micro.x"].update(kind="nano"),
            "kind")

    def test_sample_count_must_match_repeats(self):
        self.check_rejected(
            lambda d: d["benchmarks"]["micro.x"].update(samples=[1.0]),
            "samples")

    def test_negative_sample(self):
        self.check_rejected(
            lambda d: d["benchmarks"]["micro.x"].update(
                samples=[-1.0, 2.0]),
            "positive")

    def test_stats_ordering(self):
        def mutate(d):
            d["benchmarks"]["micro.x"]["stats"]["median"] = 99.0
        self.check_rejected(mutate, "min <= median <= max")

    def test_stats_min_must_match_samples(self):
        def mutate(d):
            stats = d["benchmarks"]["micro.x"]["stats"]
            stats["min"] = 5.0
            stats["median"] = 10.0
        self.check_rejected(mutate, "does not match")

    def test_truncated_doc(self):
        doc = make_doc()
        del doc["config"]
        with pytest.raises(BenchSchemaError):
            validate_bench(doc)


class TestCli:
    def test_main_ok(self, tmp_path, capsys):
        import json
        path = tmp_path / "BENCH_ok.json"
        path.write_text(json.dumps(make_doc()))
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_main_fail(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{}")
        assert main([str(path)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_main_usage(self, capsys):
        assert main([]) == 2

    def test_validate_does_not_mutate(self):
        doc = make_doc()
        before = copy.deepcopy(doc)
        validate_bench(doc)
        assert doc == before
