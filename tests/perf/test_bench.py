"""The ``repro bench`` harness: matrix construction, execution,
statistics, document validation and the emitted-file CLI path."""

import json
import subprocess

import pytest

from repro.cli import main
from repro.perf import bench
from repro.perf.schema import BenchSchemaError, validate_bench, validate_file


class TestMatrix:
    def test_full_matrix_is_pinned(self):
        names = [c.name for c in bench.build_cases()]
        assert "micro.hist.record" in names
        assert "micro.mdc.lookup" in names
        for scheme in bench.POLICY_SCHEMES:
            assert f"micro.policy.{scheme}" in names
        assert "micro.policy.pssm_ctree" in names
        for sched in ("fifo", "critical_first", "banked"):
            assert f"micro.sched.{sched}" in names
        assert len([n for n in names if n.startswith("macro.")]) == \
            len(bench.MACRO_WORKLOADS) * len(bench.MACRO_SCHEMES)

    def test_smoke_keeps_micro_trims_macro(self):
        names = [c.name for c in bench.build_cases(smoke=True)]
        assert [n for n in names if n.startswith("macro.")] == \
            ["macro.atax.shm"]
        assert "micro.policy.shm" in names

    def test_pattern_filter(self):
        names = [c.name for c in bench.build_cases(pattern="sched")]
        assert names and all("sched" in n for n in names)

    def test_unmatched_filter_raises(self):
        with pytest.raises(ValueError):
            bench.run_bench(pattern="no-such-benchmark")


class TestStats:
    def test_robust_stats(self):
        stats = bench.robust_stats([3.0, 1.0, 2.0, 100.0])
        assert stats["min"] == 1.0
        assert stats["max"] == 100.0
        assert stats["median"] == 2.5
        # MAD shrugs off the outlier; the mean does not.
        assert stats["mad"] == 1.0
        assert stats["mean"] == 26.5

    def test_single_sample(self):
        stats = bench.robust_stats([4.0])
        assert stats["min"] == stats["median"] == stats["max"] == 4.0
        assert stats["mad"] == 0.0


class TestExecution:
    def test_micro_case_runs_and_validates(self):
        doc = bench.run_bench(pattern="micro.hist", repeats=2, warmup=0)
        assert validate_bench(doc) is doc
        entry = doc["benchmarks"]["micro.hist.record"]
        assert entry["kind"] == "micro"
        assert entry["unit"] == "ns/op"
        assert len(entry["samples"]) == 2
        assert all(s > 0 for s in entry["samples"])

    def test_policy_and_sched_micros_execute(self):
        """Every micro case runs once, so an API change under any of
        them (the metadata caches, the MEE, a scheduler) fails here."""
        doc = bench.run_bench(pattern="micro.", repeats=1, warmup=0)
        validate_bench(doc)
        micros = {case.name for case in bench.build_cases()
                  if case.kind == "micro"}
        assert set(doc["benchmarks"]) == micros
        assert {"micro.mdc.lookup", "micro.policy.pssm_ctree",
                "micro.sched.fifo"} <= micros

    def test_environment_fingerprint(self):
        env = bench.environment_fingerprint()
        assert set(env) == {"git_sha", "git_dirty", "python", "platform",
                            "cpu_count"}
        assert env["git_dirty"] in (True, False, None)
        assert env["cpu_count"] >= 1

    def test_git_dirty_tracks_modified_tracked_files(self, tmp_path):
        assert bench.git_dirty(tmp_path) is None  # not a checkout
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
               "-c", "commit.gpgsign=false"]
        subprocess.run(git + ["init", "-q"], cwd=tmp_path, check=True)
        (tmp_path / "tracked.txt").write_text("v1\n")
        subprocess.run(git + ["add", "tracked.txt"], cwd=tmp_path,
                       check=True)
        subprocess.run(git + ["commit", "-q", "-m", "init"], cwd=tmp_path,
                       check=True)
        assert bench.git_dirty(tmp_path) is False
        (tmp_path / "untracked.txt").write_text("scratch\n")
        assert bench.git_dirty(tmp_path) is False
        (tmp_path / "tracked.txt").write_text("v2\n")
        assert bench.git_dirty(tmp_path) is True

    def test_default_output_name(self):
        assert bench.default_output_name(
            {"environment": {"git_sha": "0123abcd4567"}}
        ) == "BENCH_0123abcd.json"
        assert bench.default_output_name(
            {"environment": {"git_sha": "0123abcd4567+89ab01cd23ef"}}
        ) == "BENCH_0123abcd.json"
        assert bench.default_output_name(
            {"environment": {"git_sha": "not-a-sha!"}}
        ) == "BENCH_local.json"
        assert bench.default_output_name({}) == "BENCH_local.json"


class TestCliBench:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "micro.hist.record" in out and "macro." in out

    def test_emits_schema_valid_json(self, tmp_path, capsys):
        """ISSUE acceptance: ``repro bench --smoke`` emits a
        schema-valid ``BENCH_*.json`` (micro slice kept small here;
        CI runs the full smoke matrix)."""
        out_path = tmp_path / "BENCH_test.json"
        assert main(["bench", "--smoke", "--filter", "hist",
                     "--output", str(out_path)]) == 0
        doc = validate_file(out_path)
        assert doc["config"]["smoke"] is True
        assert "micro.hist.record" in doc["benchmarks"]
        # Byte-stable emission: sorted keys, so identical docs diff clean.
        assert out_path.read_text() == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert "repro bench" in capsys.readouterr().out

    def test_rejects_corrupt_baseline(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{\"bench_format\": 99}")
        with pytest.raises(BenchSchemaError):
            validate_file(bad)
        with pytest.raises(SystemExit):
            main(["bench", "--compare", str(bad),
                  "--against", str(bad)])
