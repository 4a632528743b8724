"""Command-line interface."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "atax"])
        assert args.workload == "atax"
        assert args.scheme == ["pssm", "shm"]

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "12", "--workloads", "atax", "--scale", "0.1"]
        )
        assert args.number == "12"
        assert args.workloads == ["atax"]
        assert args.scale == 0.1

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom3"])

    def test_every_figure_names_a_registered_experiment(self):
        from repro.eval.experiments import EXPERIMENTS

        assert set(FIGURES) == {"5", "10", "11", "12", "13", "14", "15", "16"}
        for number in FIGURES:
            assert f"fig{number}" in EXPERIMENTS


class TestCommands:
    def test_hardware(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "Table IX" in out
        assert "5460" in out

    def test_suite_list(self, capsys):
        assert main(["suite", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fdtd2d" in out and "b+tree" in out

    def test_run_small(self, capsys):
        assert main(["run", "--workload", "atax", "--scheme", "pssm",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "pssm" in out and "overhead" in out

    def test_figure_small(self, capsys):
        assert main(["figure", "5", "--workloads", "atax",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "atax" in out

    def test_figure_with_empty_workloads_runs_the_default_set(
            self, monkeypatch, capsys):
        from repro.eval import experiments

        calls = []

        def run_experiment(name, runner, workloads=None):
            calls.append((name, workloads))
            return experiments.ExperimentResult(name)

        monkeypatch.setattr(experiments, "run_experiment", run_experiment)
        assert main(["figure", "12", "--workloads", "--scale", "0.05"]) == 0
        assert calls == [("fig12", None)]

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    def test_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "atax", "--scheme", "bogus",
                  "--scale", "0.05"])


class TestWorkloadsVerb:
    def test_lists_patterns_and_templates(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "zipfian" in out and "snake" in out
        assert "mt4" in out and "mt4_churn50" in out

    def test_describe_template(self, capsys):
        assert main(["workloads", "--describe", "mt2",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "2 tenants" in out and "epoch0" in out

    def test_describe_spec_file(self, tmp_path, capsys):
        from repro.workloads.multitenant import contention_spec

        path = tmp_path / "suite.json"
        path.write_text(json.dumps(contention_spec(2,
                                                   footprint="192KB")))
        assert main(["workloads", "--describe", str(path),
                     "--scale", "0.05"]) == 0
        assert "mt2" in capsys.readouterr().out

    def test_emit_trace_validates(self, tmp_path, capsys):
        from repro.obs.validate import validate_workload_trace
        from repro.workloads.multitenant import contention_spec

        spec = tmp_path / "suite.json"
        spec.write_text(json.dumps(contention_spec(2,
                                                   footprint="192KB")))
        out = tmp_path / "trace.jsonl.gz"
        assert main(["workloads", "--spec", str(spec), "--scale", "0.05",
                     "--emit-trace", str(out)]) == 0
        info = validate_workload_trace(out)
        assert info["format_version"] == 2
        assert info["accesses"] > 0

    def test_describe_and_emit_trace_build_once(self, tmp_path,
                                                monkeypatch, capsys):
        from repro.workloads import multitenant

        builds = []
        real = multitenant.build_multi_tenant

        def spy(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(multitenant, "build_multi_tenant", spy)
        assert main(["workloads", "--describe", "mt2", "--scale", "0.05",
                     "--emit-trace", str(tmp_path / "t.jsonl.gz")]) == 0
        assert "2 tenants" in capsys.readouterr().out
        assert len(builds) == 1

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["workloads", "--describe", "not-a-template"])

    def test_validator_flags_corrupt_trace(self, tmp_path, capsys):
        from repro.obs import validate as v

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(v.ValidationError):
            v.validate_workload_trace(path)
        assert v.main(["--workload-trace", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestObservability:
    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        """One instrumented run shared by the assertions below."""
        outdir = tmp_path_factory.mktemp("obs")
        trace = outdir / "trace.json"
        metrics = outdir / "metrics.jsonl"
        code = main(["run", "--workload", "atax", "--scheme", "shm",
                     "--scale", "0.05", "--trace", str(trace),
                     "--metrics-out", str(metrics)])
        assert code == 0
        return trace, metrics

    def test_run_reports_p95_latency(self, exports, capsys):
        assert main(["run", "--workload", "atax", "--scheme", "pssm",
                     "--scale", "0.05"]) == 0
        assert "p95 lat" in capsys.readouterr().out

    def test_trace_is_valid_chrome_json(self, exports):
        trace, _ = exports
        data = json.loads(trace.read_text())
        events = data["traceEvents"]
        assert events
        assert all("ph" in e and "pid" in e for e in events)
        assert any(e.get("cat") == "mee" for e in events)

    def test_metrics_validate(self, exports):
        from repro.obs.validate import validate_metrics, validate_trace

        trace, metrics = exports
        validate_trace(trace, expect_partitions=12)
        info = validate_metrics(metrics)
        assert info["runs"] == {"atax/shm": info["runs"]["atax/shm"]}

    def test_inspect_windows(self, exports, capsys):
        _, metrics = exports
        assert main(["inspect", str(metrics), "--limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "cycle windows" in out
        assert "data KB" in out

    def test_inspect_phases(self, exports, capsys):
        _, metrics = exports
        assert main(["inspect", str(metrics), "--phases"]) == 0
        out = capsys.readouterr().out
        assert "per-kernel traffic" in out
        assert "total" in out

    def test_inspect_unknown_run(self, exports):
        _, metrics = exports
        with pytest.raises(SystemExit):
            main(["inspect", str(metrics), "--run", "nope/shm"])

    def test_inspect_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "absent.jsonl")])

    def test_nonpositive_window_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "atax", "--scheme", "shm",
                  "--scale", "0.05", "--metrics-out",
                  str(tmp_path / "m.jsonl"), "--window-cycles", "-5"])

    def test_inspect_rejects_non_metrics_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"type": "meta"}) + "\n")
        with pytest.raises(SystemExit):
            main(["inspect", str(path)])


class TestCampaignCLI:
    def test_list_names_every_experiment(self, capsys):
        from repro.eval.experiments import EXPERIMENTS

        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_experiments_required(self):
        with pytest.raises(SystemExit):
            main(["campaign"])

    @pytest.mark.parametrize("argv", [
        ["campaign", "fig5", "--jobs", "0"],
        ["campaign", "--smoke", "--jobs", "0"],
        ["campaign", "fig5", "--jobs", "-3"],
    ])
    def test_fewer_than_one_worker_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --jobs: must be at least 1" in \
            capsys.readouterr().err

    def test_smoke_resumes_from_the_store(self, tmp_path, capsys):
        assert main(["campaign", "--smoke", "--jobs", "1",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "smoke pass 2: 0 executed, 4 cached" in out
        assert "smoke OK" in out

    def test_inspect_renders_manifest(self, tmp_path, capsys):
        from repro.eval.campaign import SMOKE_SPEC, run_campaign

        report = run_campaign(["smoke"], scale=0.05, serial=True,
                              workloads=["atax"],
                              specs={"smoke": SMOKE_SPEC})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(report.manifest))
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign: smoke" in out
        assert "average" in out

    def test_inspect_cells_flag_lists_cells(self, tmp_path, capsys):
        from repro.eval.campaign import SMOKE_SPEC, run_campaign

        report = run_campaign(["smoke"], scale=0.05, serial=True,
                              workloads=["atax"],
                              specs={"smoke": SMOKE_SPEC})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(report.manifest))
        assert main(["inspect", str(path), "--cells"]) == 0
        out = capsys.readouterr().out
        assert "atax" in out and "pssm" in out


@pytest.fixture(scope="class")
def smoke_manifests(tmp_path_factory):
    """Serial and pool manifests of the smoke campaign on atax."""
    from repro.eval.campaign import SMOKE_SPEC, run_campaign

    root = tmp_path_factory.mktemp("manifests")
    paths = {}
    for mode, kwargs in (("serial", {"serial": True}), ("pool", {"jobs": 2})):
        report = run_campaign(["smoke"], scale=0.05, workloads=["atax"],
                              specs={"smoke": SMOKE_SPEC}, **kwargs)
        assert report.totals["failed"] == 0
        paths[mode] = root / f"{mode}.json"
        paths[mode].write_text(json.dumps(report.manifest))
    return paths


class TestDiffVerb:
    def _edited(self, path, tmp_path, edit):
        manifest = json.loads(path.read_text())
        edit(manifest)
        out = tmp_path / "edited.json"
        out.write_text(json.dumps(manifest))
        return out

    def test_serial_and_pool_show_only_zero_deltas(self, smoke_manifests,
                                                   capsys):
        assert main(["diff", str(smoke_manifests["serial"]),
                     str(smoke_manifests["pool"]), "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        assert "smoke/shm/atax" in out and "smoke/pssm/atax" in out
        assert "2 value(s) compared, 0 differ by more than 0" in out
        assert " *" not in out

    def test_a_perturbed_value_is_flagged(self, smoke_manifests, tmp_path,
                                          capsys):
        def perturb(manifest):
            manifest["experiments"]["smoke"]["series"]["shm"]["atax"] += 0.01

        new = self._edited(smoke_manifests["pool"], tmp_path, perturb)
        assert main(["diff", str(smoke_manifests["serial"]), str(new),
                     "--threshold", "0.001"]) == 3
        flagged = [line for line in capsys.readouterr().out.splitlines()
                   if line.endswith(" *")]
        assert len(flagged) == 1 and flagged[0].startswith("smoke/shm/atax")

    def test_a_manifest_without_series_is_rejected(self, smoke_manifests,
                                                   tmp_path):
        def strip(manifest):
            del manifest["experiments"]["smoke"]["series"]

        old = self._edited(smoke_manifests["serial"], tmp_path, strip)
        with pytest.raises(SystemExit) as exc:
            main(["diff", str(old), str(smoke_manifests["pool"])])
        assert "'series'" in str(exc.value) and str(old) in str(exc.value)

    def test_nothing_comparable_exits_one(self, smoke_manifests, tmp_path,
                                          capsys):
        def rename(manifest):
            experiments = manifest["experiments"]
            experiments["other"] = experiments.pop("smoke")

        new = self._edited(smoke_manifests["pool"], tmp_path, rename)
        assert main(["diff", str(smoke_manifests["serial"]),
                     str(new)]) == 1
        assert "no comparable values" in capsys.readouterr().out


class TestReproduceVerb:
    def test_writes_tables_and_a_manifest(self, tmp_path, monkeypatch,
                                          capsys):
        import repro.cli as cli
        import repro.eval.experiments as experiments

        monkeypatch.setattr(cli, "FIGURES",
                            {n: FIGURES[n] for n in ("5", "12", "16")})
        monkeypatch.setattr(experiments, "DEFAULT_WORKLOADS", ["atax"])
        outdir = tmp_path / "out"
        assert main(["reproduce", "--scale", "0.05",
                     "--outdir", str(outdir)]) == 0
        assert "figure 16: skipped" in capsys.readouterr().out
        assert sorted(p.name for p in outdir.iterdir()) == [
            "fig12.txt", "fig5.txt", "manifest.json", "table9.txt"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["totals"]["failed"] == 0
        assert set(manifest["experiments"]) == {"fig5", "fig12"}
        assert set(manifest["experiments"]["fig12"]["series"]["shm"]) == {
            "atax"}


class TestHostProfileCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["inspect", "--host-profile"])
        assert args.host_profile is True
        assert args.path is None
        assert args.workload == "atax"
        assert args.scheme == ["pssm", "shm"]

    def test_inspect_without_path_or_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["inspect"])

    def test_host_profile_runs_and_reports(self, capsys):
        assert main(["inspect", "--host-profile", "--workload", "atax",
                     "--scheme", "pssm", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "host-time profile" in out
        assert "atax/pssm" in out
        for layer in ("frontend", "translate", "pipeline", "l2", "mee",
                      "metadata", "dram", "setup", "samples", "sampler"):
            assert layer in out
