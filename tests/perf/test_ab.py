"""``repro bench BASE``: pairing order, verdict rules, failed runs,
materialising a revision, and the command line.  No perfbench pass
runs here: every pairing test hands :mod:`repro.perf.ab` a fake
``run(tree, workload)`` that returns canned metrics."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.perf import ab

TREES = {"base": Path("base-tree"), "change": Path("change-tree")}
END_TO_END = [m["name"] for m in ab.load_benchmark()["end_to_end"]]


def fake_run(values, correct=lambda side, pair: True):
    """A ``run`` whose ``i``-th call in a tree returns pair ``i``'s
    canned metrics ``values(side, i)``; ``calls`` records the order."""
    calls = []

    def run(tree, workload):
        side = "base" if tree == TREES["base"] else "change"
        pair = sum(1 for t, w in calls if (t, w) == (tree, workload))
        calls.append((tree, workload))
        return {"correct": correct(side, pair),
                "metrics": {name: {"value": value, "unit": "-"}
                            for name, value in values(side, pair).items()}}

    run.calls = calls
    return run


def flat(side, pair):
    return {name: 1.0 for name in END_TO_END}


class TestPairing:
    def test_base_runs_first_on_even_pairs(self):
        run = fake_run(flat)
        runs = ab.measure(TREES, ["w1", "w2"], run)
        order = ["base", "change", "change", "base"] * (ab.PAIRS // 2)
        expected = [(TREES[side], w) for w in ("w1", "w2") for side in order]
        assert run.calls == expected
        assert set(runs) == {"w1", "w2"}
        assert all(len(runs[w][side]) == ab.PAIRS
                   for w in runs for side in ab.SIDES)

    def test_runs_are_recorded_in_pair_order(self):
        runs = ab.measure(TREES, ["w"], fake_run(
            lambda side, pair: {"wall_s": pair + (0.5 if side == "change"
                                                  else 0.0)}))
        assert [r["wall_s"] for r in runs["w"]["base"]] == list(range(10))
        assert [r["wall_s"] for r in runs["w"]["change"]] == [
            i + 0.5 for i in range(10)]


class TestVerdict:
    @pytest.mark.parametrize("better,factor,expected", [
        ("lower", 1.3, "worse"), ("lower", 1.2, "same"),
        ("higher", 0.7, "worse"), ("higher", 0.8, "same"),
    ])
    def test_worse_beyond_the_bound(self, better, factor, expected):
        row = ab.verdict([10.0] * 10, [10.0 * factor] * 10, better, 0.25)
        assert row["verdict"] == expected
        assert row["won"] == 0
        assert row["ratio"] == pytest.approx(factor)

    def test_ties_count_for_neither_side(self):
        base = [10.0] * 10
        row = ab.verdict(base, [9.0] * 8 + [10.0] * 2, "lower", 0.25)
        assert (row["won"], row["verdict"]) == (8, "same")
        row = ab.verdict(base, [9.0] * 9 + [10.0], "lower", 0.25)
        assert (row["won"], row["verdict"]) == (9, "gain")
        assert ab.verdict(base, base, "higher", 0.25)["won"] == 0

    def test_gain_needs_the_medians_apart_by_more_than_the_spread(self):
        base = [10.0, 10.5] * 5                 # quartiles 10 and 10.5
        for change, expected in ((10.6, "same"), (10.9, "gain")):
            row = ab.verdict(base, [change] * 10, "higher", 0.25)
            assert (row["won"], row["verdict"]) == (10, expected)

    def test_wide_base_spread_is_unresolved(self):
        base = [10.0, 20.0] * 5                 # spread 10 over median 15
        change = [9.0, 16.0] * 5
        row = ab.verdict(base, change, "lower", 0.25)
        assert (row["won"], row["verdict"]) == (10, "unresolved")

    @pytest.mark.parametrize("change,better,expected", [
        (5.0, "lower", "same"),      # medians 10 apart: not beyond spread
        (4.0, "lower", "gain"),
        (25.0, "higher", "same"),
        (31.0, "higher", "gain"),
    ])
    def test_every_change_run_beating_every_base_run_resolves(
            self, change, better, expected):
        base = [10.0, 20.0] * 5                 # spread 10 over median 15
        row = ab.verdict(base, [change] * 10, better, 0.25)
        assert row["verdict"] == expected

    def test_worse_wins_over_unresolved(self):
        row = ab.verdict([10.0, 20.0] * 5, [30.0] * 10, "lower", 0.25)
        assert row["verdict"] == "worse"


class TestExitStatus:
    def test_table_and_json_line(self, capsys):
        assert ab.run_ab(TREES, ["paper-fig12"], fake_run(flat)) == 0
        out = capsys.readouterr().out.splitlines()
        table = json.loads(out[-1])
        assert table["pairs"] == ab.PAIRS
        rows = table["workloads"]["paper-fig12"]
        assert list(rows) == END_TO_END
        assert all(row["verdict"] == "same" and row["ratio"] == 1.0
                   for row in rows.values())
        assert any(line.startswith("paper-fig12") and "cells_per_s" in line
                   for line in out)

    def test_worse_metric_exits_3(self, capsys):
        def slower(side, pair):
            values = flat(side, pair)
            if side == "change":
                values["wall_s"] = 1.5
            return values
        assert ab.run_ab(TREES, ["w"], fake_run(slower)) == 3
        rows = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert rows["workloads"]["w"]["wall_s"]["verdict"] == "worse"

    def test_incorrect_run_exits_2_naming_workload_side_and_pair(self, capsys):
        run = fake_run(flat, correct=lambda side, pair: not (
            side == "change" and pair == 3))
        assert ab.run_ab(TREES, ["golden-matrix"], run) == 2
        err = capsys.readouterr().err
        assert "golden-matrix: change run of pair 3" in err
        assert "correct: false" in err

    def test_failed_run_exits_2(self, capsys):
        def run(tree, workload):
            raise ab.RunFailed("exit 1: boom")
        assert ab.run_ab(TREES, ["churn-pool"], run) == 2
        assert ("churn-pool: base run of pair 0 failed: exit 1: boom"
                in capsys.readouterr().err)


class TestPerfbenchRun:
    """The real ``run`` against stand-in ``perfbench/run.py`` scripts."""

    @pytest.fixture
    def tree(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        return tmp_path

    def script(self, tree, body):
        (tree / "perfbench" / "run.py").write_text(body)

    def test_last_line_is_the_result(self, tree, monkeypatch):
        self.script(tree, "import json, sys\nprint('noise')\n"
                          "print(json.dumps({'correct': True, "
                          "'argv': sys.argv[1:]}))\n")
        monkeypatch.setattr(ab, "load_benchmark", lambda: {
            "command": [sys.executable, "perfbench/run.py"],
            "run_seconds": 20})
        result = ab.perfbench_run(tree, "paper-fig12")
        assert result["correct"] is True
        assert result["argv"] == ["--workload", "paper-fig12", "--seed", "0",
                                  "--seconds", "20", "--trace", "0"]

    @pytest.mark.parametrize("body,message", [
        ("import sys\nsys.exit(1)\n", "exit 1"),
        ("print('not json')\n", "not JSON"),
    ])
    def test_failures_raise(self, tree, monkeypatch, body, message):
        self.script(tree, body)
        monkeypatch.setattr(ab, "load_benchmark", lambda: {
            "command": [sys.executable, "perfbench/run.py"],
            "run_seconds": 1})
        with pytest.raises(ab.RunFailed, match=message):
            ab.perfbench_run(tree, "paper-fig12")


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True, text=True).stdout


class TestMaterialise:
    @pytest.fixture
    def repo(self, tmp_path):
        git(tmp_path, "init", "-q")
        (tmp_path / ".gitignore").write_text(".perfbench/\n")
        (tmp_path / "a.txt").write_text("first\n")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-q", "-m", "first")
        (tmp_path / "a.txt").write_text("second\n")
        (tmp_path / "b.txt").write_text("new\n")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-q", "-m", "second")
        return tmp_path

    def test_extracts_the_revision_and_leaves_the_checkout(self, repo):
        head = git(repo, "rev-parse", "HEAD")
        status = git(repo, "status", "--porcelain")
        tree = ab.materialise("HEAD^", repo)
        assert tree == (repo / ".perfbench" / "ab"
                        / git(repo, "rev-parse", "HEAD^").strip())
        assert (tree / "a.txt").read_text() == "first\n"
        assert not (tree / "b.txt").exists()
        assert git(repo, "rev-parse", "HEAD") == head
        assert git(repo, "status", "--porcelain") == status
        assert (repo / "a.txt").read_text() == "second\n"

    def test_second_call_reuses_the_tree(self, repo):
        tree = ab.materialise("HEAD^", repo)
        (tree / "marker").write_text("kept\n")
        assert ab.materialise("HEAD~1", repo) == tree
        assert (tree / "marker").read_text() == "kept\n"
        assert [p.name for p in tree.parent.iterdir()] == [tree.name]

    def test_unknown_revision(self, repo):
        with pytest.raises(ValueError, match="unknown revision 'nope'"):
            ab.materialise("nope", repo)


class TestCommandLine:
    def test_base_and_workloads(self):
        args = build_parser().parse_args(["bench", "HEAD^"])
        assert (args.base, args.workloads) == ("HEAD^", [])
        args = build_parser().parse_args(
            ["bench", "main", "paper-fig12", "churn-pool"])
        assert args.workloads == ["paper-fig12", "churn-pool"]

    @pytest.mark.parametrize("argv", [
        ["bench"],
        ["bench", "HEAD", "no-such-workload"],
        ["bench", "--smoke"],
        ["bench", "HEAD", "--compare", "BENCH_old.json"],
    ])
    def test_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err
