"""Command-line interface: run schemes and regenerate figures.

Examples::

    python -m repro run --workload fdtd2d --scheme shm pssm naive
    python -m repro run --workload atax --scheme shm --trace t.json \
        --metrics-out m.jsonl
    python -m repro inspect m.jsonl
    python -m repro figure 12 --scale 0.25
    python -m repro figure 14 --workloads atax fdtd2d bfs
    python -m repro campaign fig12 fig13 --jobs 4 --store .repro-store
    python -m repro campaign all --manifest campaign.json
    python -m repro inspect campaign.json
    python -m repro campaign --smoke --store /tmp/repro-store
    python -m repro diff old-campaign.json campaign.json --threshold 0
    python -m repro bench HEAD paper-fig12
    python -m repro suite --list
    python -m repro hardware
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.common.types import Scheme
from repro.eval import experiments as exp
from repro.eval.reporting import format_overheads, format_table
from repro.sim.runner import Runner
from repro.workloads.suite import BENCHMARK_NAMES

#: Figure number N -> (render-as-overheads?, title); ``repro figure N``
#: runs the registered experiment ``fig<N>``.
FIGURES = {
    "5": (False, "Fig. 5: streaming / read-only access ratios"),
    "10": (False, "Fig. 10: read-only prediction breakdown"),
    "11": (False, "Fig. 11: streaming prediction breakdown"),
    "12": (True, "Fig. 12: performance overheads"),
    "13": (True, "Fig. 13: optimisation breakdown"),
    "14": (False, "Fig. 14: metadata bandwidth overhead"),
    "15": (False, "Fig. 15: normalised energy per instruction"),
    "16": (True, "Fig. 16: L2 as a metadata victim cache"),
}


def _parse_scheme(name: str):
    """A Table VIII :class:`Scheme` member, or the validated name of a
    custom composition from the scheme registry."""
    from repro.core.policies.registry import available_schemes, resolve_scheme

    try:
        return resolve_scheme(name.lower())
    except ValueError:
        valid = ", ".join(available_schemes())
        raise SystemExit(f"unknown scheme {name!r}; choose from: {valid}")


def _scheme_label(scheme) -> str:
    """Display name for a parsed scheme (enum member or registry name)."""
    return scheme.value if isinstance(scheme, Scheme) else scheme


def _worker_count(text: str) -> int:
    """argparse type for ``--jobs``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bench_workload(name: str) -> str:
    """argparse type for ``repro bench``'s WORKLOAD: a workload that
    ``BENCHMARK.json`` lists."""
    from repro.perf.ab import load_benchmark

    names = [w["name"] for w in load_benchmark()["workloads"]]
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"unknown workload {name!r}; choose from: {', '.join(names)}")
    return name


def _build_observer(args: argparse.Namespace):
    """An Observer when any observability flag is set, else None."""
    if not (args.trace or args.metrics_out):
        return None
    if args.window_cycles is not None and args.window_cycles <= 0:
        raise SystemExit("--window-cycles must be positive")
    from repro.obs import ChromeTracer, Observer

    tracer = ChromeTracer() if args.trace else None
    return Observer(tracer=tracer,
                    window_cycles=args.window_cycles or 1.0)


def cmd_run(args: argparse.Namespace) -> int:
    observer = _build_observer(args)
    runner = Runner(scale=args.scale, observer=observer)
    baseline = runner.baseline(args.workload)
    if observer is not None and not args.window_cycles:
        # Adaptive default: ~100 windows across the baseline run.
        observer.window_cycles = max(1.0, baseline.cycles / 100)
    print(f"{args.workload}: baseline {baseline.cycles:,.0f} cycles, "
          f"DRAM utilisation {baseline.dram_utilization:.0%}")
    header = (f"{'scheme':16s} {'norm.IPC':>9s} {'overhead':>9s} "
              f"{'meta BW':>8s} {'ctr':>7s} {'mac':>7s} {'bmt':>7s} "
              f"{'mispred':>8s} {'p95 lat':>8s}")
    print(header)
    print("-" * len(header))
    for name in args.scheme:
        scheme = _parse_scheme(name)
        result = runner.run(args.workload, scheme)
        nipc = result.normalized_ipc(baseline)
        b = result.traffic_breakdown()
        print(f"{_scheme_label(scheme):16s} {nipc:9.3f} {1 - nipc:9.1%} "
              f"{result.bandwidth_overhead:8.1%} {b['ctr']:7.1%} "
              f"{b['mac']:7.1%} {b['bmt']:7.1%} {b['mispred']:8.1%} "
              f"{result.latency.p95:8.0f}")
    if observer is not None:
        if args.trace:
            observer.write_trace(args.trace)
            print(f"wrote Chrome trace to {args.trace} "
                  f"(open in Perfetto / chrome://tracing)")
        if args.metrics_out:
            rows = observer.write_metrics(args.metrics_out)
            print(f"wrote {rows} metric rows to {args.metrics_out} "
                  f"(view with: repro inspect {args.metrics_out})")
    return 0


def _host_profile(args: argparse.Namespace) -> int:
    """Calibrate, then simulate each requested scheme inside a stack
    sampler and render its host time per simulator layer."""
    from repro.eval.reporting import format_host_profile
    from repro.perf.hostprof import HOST_PROFILE_FORMAT, INTERVAL_S, HostSampler

    runner = Runner(scale=args.scale)
    runner.calibration(args.workload)
    runs = {}
    for scheme in dict.fromkeys(_parse_scheme(name) for name in args.scheme):
        with HostSampler() as sampler:
            runner.simulate(args.workload, scheme)
        runs[f"{args.workload}/{_scheme_label(scheme)}"] = sampler.report()
    snapshot = {"host_profile_format": HOST_PROFILE_FORMAT,
                "interval_s": INTERVAL_S, "runs": runs}
    print(format_host_profile(
        snapshot,
        title=f"host-time profile: {args.workload} @ scale {args.scale}",
    ))
    if args.profile_json:
        import json
        from pathlib import Path

        Path(args.profile_json).write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.profile_json}")
    return 0


#: The built-in ``ctr-hammer`` demo workload for ``inspect
#: --decisions``: a conflict stride (LCM of the 12x256B partition
#: interleave and the per-bank set stride) that funnels every write
#: into one L2 set of one partition, forcing the writeback evictions
#: that overflow minor counters — suite workloads at small scale are
#: absorbed by the 3 MB L2 and produce no pssm-family decisions at
#: all.  Built at scale 1.0 regardless of --scale (the buffer is
#: fixed-size by design).
CTR_HAMMER_SPEC = {
    "suite_format": 1,
    "name": "ctr-hammer",
    "bandwidth_utilization": 0.6,
    "buffers": [{"name": "buf", "size": "1.5MB", "fixed_size": True}],
    "phases": [
        {"name": "hammer", "steps": [
            {"buffer": "buf", "pattern": "stride",
             "stride": 24576, "count": 40000, "write": True},
        ]},
    ],
}


def _inspect_decisions(args: argparse.Namespace) -> int:
    """Live-run the requested schemes with a decision ledger attached
    (the MEE takes its unledgered code path) and render per-region
    decision timelines plus the per-scheme accuracy/misprediction-cost
    tables."""
    from repro.eval.reporting import (
        format_decision_summary,
        format_decision_timeline,
    )
    from repro.obs.decisions import DecisionLedger

    ledger = DecisionLedger()
    runner = Runner(scale=args.scale, ledger=ledger)
    if args.workload == "ctr-hammer":
        from repro.workloads.compose import build_workload as build_composed

        runner.add_workload(build_composed(CTR_HAMMER_SPEC, scale=1.0))
    summaries = {}
    for name in args.scheme:
        scheme = _parse_scheme(name)
        runner.run(args.workload, scheme)
        label = f"{args.workload}/{_scheme_label(scheme)}"
        summaries[label] = ledger.summary(run=label)

    rows = ledger.to_rows()
    filtered = rows
    if args.region is not None:
        filtered = [r for r in filtered if r["region"] == args.region]
    if args.kernel is not None:
        filtered = [r for r in filtered if r["kernel"] == args.kernel]
    if args.type:
        filtered = [r for r in filtered if r["type"] == args.type]

    print(format_decision_summary(
        summaries,
        title=f"decision provenance: {args.workload} @ "
              f"scale {args.scale}"))
    print()
    shown = format_decision_timeline(filtered, limit=args.limit)
    print(shown)
    if len(filtered) != len(rows):
        print(f"\n({len(filtered)} of {len(rows)} decisions match "
              f"the filter)")
    if args.decisions_out:
        out = ledger.write_jsonl(args.decisions_out)
        print(f"\nwrote {len(rows)} decisions to {out} "
              f"(check with: python -m repro.obs.validate "
              f"--decisions {out})")
    if args.decisions_trace:
        from repro.obs.tracing import ChromeTracer

        tracer = ChromeTracer()
        ledger.export_trace(tracer)
        tracer.write(args.decisions_trace)
        print(f"wrote decision spans to {args.decisions_trace} "
              f"(open in Perfetto / chrome://tracing)")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Render a campaign manifest, a time-sliced table from a
    --metrics-out JSONL file, (--host-profile) a live host-time profile
    of the simulator, or (--decisions) a live security
    decision-provenance view."""
    import json

    from repro.eval.reporting import (
        format_campaign_manifest,
        format_phase_breakdown,
        format_timeslices,
    )
    from repro.obs.validate import ValidationError, load_jsonl

    if args.host_profile:
        return _host_profile(args)
    if args.decisions:
        return _inspect_decisions(args)
    if not args.path:
        raise SystemExit(
            "inspect needs a PATH (or --host-profile / --decisions)")

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.path}: {exc}")
    except ValueError:
        document = None  # not a single JSON document; try JSONL below
    if isinstance(document, dict) and "campaign_format" in document:
        print(format_campaign_manifest(document, verbose=args.cells))
        return 0

    try:
        rows = load_jsonl(args.path)
    except (OSError, ValidationError) as exc:
        raise SystemExit(f"cannot read {args.path}: {exc}")
    windows = [r for r in rows if r.get("type") == "window"]
    runs = sorted({r["run"] for r in windows})
    if not runs:
        raise SystemExit(f"{args.path}: no window rows "
                         f"(was the file produced by --metrics-out?)")
    selected = args.run or runs[0]
    if selected not in runs:
        raise SystemExit(f"run {selected!r} not in file; "
                         f"available: {', '.join(runs)}")
    if len(runs) > 1 and not args.run:
        print(f"multiple runs in file ({', '.join(runs)}); "
              f"showing {selected!r} (pick one with --run)")
    selected_rows = [r for r in windows if r["run"] == selected]
    if args.phases:
        print(format_phase_breakdown(selected_rows,
                                     title=f"{selected}: per-kernel traffic"))
    else:
        print(format_timeslices(selected_rows, limit=args.limit,
                                title=f"{selected}: cycle windows"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Paired perfbench runs of the working tree against ``BASE``."""
    from repro.perf import ab

    return ab.bench(args.base, args.workloads)


def cmd_figure(args: argparse.Namespace) -> int:
    if args.number not in FIGURES:
        raise SystemExit(f"no experiment for figure {args.number!r}; "
                         f"available: {', '.join(sorted(FIGURES))}")
    as_overheads, title = FIGURES[args.number]
    result = exp.run_experiment(f"fig{args.number}", Runner(scale=args.scale),
                                args.workloads or None)
    if args.chart:
        from repro.eval.plotting import breakdown_bars, grouped_bars

        if args.number in ("10", "11"):
            print(breakdown_bars(result, title=title))
        else:
            print(grouped_bars(result, title=title, invert=as_overheads))
        return 0
    if as_overheads:
        print(format_overheads(result, title=title))
    else:
        print(format_table(result, percent=True, title=title))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    if args.list:
        for name in BENCHMARK_NAMES:
            print(name)
        return 0
    runner = Runner(scale=args.scale)
    print(f"{'workload':14s} {'accesses':>9s} {'kernels':>8s} "
          f"{'util target':>12s} {'util measured':>14s}")
    for name in args.workloads or BENCHMARK_NAMES:
        w = runner.workload(name)
        base = runner.baseline(name)
        print(f"{name:14s} {w.total_accesses:9,} {len(w.kernels):8d} "
              f"{w.bandwidth_utilization:12.0%} {base.dram_utilization:14.0%}")
    return 0


def _resolve_workload_spec(name_or_path: str) -> dict:
    """A suite spec from a multi-tenant template name or a spec file
    (JSON/TOML) path — the two spellings ``--describe`` accepts."""
    from pathlib import Path

    from repro.workloads.compose import SpecError, load_spec
    from repro.workloads.multitenant import TEMPLATES

    if name_or_path in TEMPLATES:
        return TEMPLATES[name_or_path]()
    if Path(name_or_path).exists():
        try:
            return load_spec(name_or_path)
        except (SpecError, OSError) as exc:
            raise SystemExit(f"cannot load {name_or_path}: {exc}")
    raise SystemExit(
        f"{name_or_path!r} is neither a template name nor a spec file; "
        f"templates: {', '.join(sorted(TEMPLATES))}")


def cmd_workloads(args: argparse.Namespace) -> int:
    """The composable-suite toolbox: list primitives and templates,
    describe a composed spec's phase plan, or emit a trace file (see
    docs/workloads.md, the workload-authoring handbook)."""
    from repro.workloads.compose import PRIMITIVES, build_workload, describe
    from repro.workloads.multitenant import TEMPLATES
    from repro.workloads.trace_io import save_workload

    if args.describe is None and args.spec is None:
        # Default view: everything an author can reference by name.
        print("patterns (spec step 'pattern' values):")
        width = max(len(name) for name in PRIMITIVES)
        for name, prim in sorted(PRIMITIVES.items()):
            keys = ", ".join(
                f"{k}={v!r}" for k, v in prim.params.items()) or "-"
            print(f"  {name:{width}s}  {prim.summary}")
            print(f"  {'':{width}s}  params: {keys}")
        print("\nmulti-tenant templates (repro workloads --describe <name>):")
        width = max(len(name) for name in TEMPLATES)
        for name in sorted(TEMPLATES):
            spec = TEMPLATES[name]()
            mt = spec.get("multi_tenant", {})
            print(f"  {name:{width}s}  {len(spec['tenants'])} tenants, "
                  f"{mt.get('arrival', 'poisson')} arrivals, "
                  f"churn {mt.get('phase_churn', 0.0):.0%}")
        print("\nsuite benchmarks (repro suite --list): "
              f"{len(BENCHMARK_NAMES)} workloads")
        return 0

    spec = _resolve_workload_spec(args.describe or args.spec)
    workload = build_workload(spec, scale=args.scale)
    print(describe(spec, workload, scale=args.scale))
    if args.emit_trace:
        save_workload(workload, args.emit_trace)
        print(f"\nwrote trace to {args.emit_trace} "
              f"({workload.total_accesses:,} accesses; .gz = v2 stream)")
    return 0


def _manifest_values(path: str) -> dict:
    """The (experiment, series, workload) values of the campaign
    manifest at ``path``; exits with an error naming the file when it
    is not a manifest or carries no ``series``."""
    import json

    from repro.eval.campaign import manifest_values

    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    if not isinstance(manifest, dict) or "campaign_format" not in manifest:
        raise SystemExit(f"{path}: not a campaign manifest "
                         f"(no 'campaign_format' field)")
    try:
        return manifest_values(manifest)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")


def cmd_diff(args: argparse.Namespace) -> int:
    """Compare two campaign manifests over every (experiment, series,
    workload) value both carry; exit 3 when any differs by more than
    ``--threshold``, 1 when they share no value."""
    old, new = _manifest_values(args.old), _manifest_values(args.new)
    shared = sorted(set(old) & set(new))
    if not shared:
        print("no comparable values")
        return 1
    print(f"{'experiment/series/workload':52s} {'old':>9s} {'new':>9s} "
          f"{'delta':>10s}")
    beyond = 0
    for key in shared:
        delta = new[key] - old[key]
        flag = abs(delta) > args.threshold
        beyond += flag
        print(f"{'/'.join(key):52s} {old[key]:9.4f} {new[key]:9.4f} "
              f"{delta:+10.3g}{' *' if flag else ''}")
    print(f"\n{len(shared)} value(s) compared, {beyond} differ by more "
          f"than {args.threshold:g}")
    return 3 if beyond else 0


def cmd_hardware(_args: argparse.Namespace) -> int:
    hw = exp.table9_hardware_overhead()
    print("Table IX: hardware overhead of the detectors")
    for key, value in hw.items():
        print(f"  {key:28s} {value}")
    return 0


def _progress(record, stats) -> None:
    """Live per-cell progress line for a campaign."""
    state = ("cached" if record.cached
             else "FAILED" if not record.ok else "ok")
    label = record.job.series or record.job.scheme
    eta = (f", eta {stats['eta_seconds']:.0f}s"
           if stats["done"] < stats["total"] else "")
    print(f"[{stats['done']:3d}/{stats['total']}] "
          f"{record.job.experiment:28s} "
          f"{record.job.workload}/{label} {state} "
          f"{record.runtime:.2f}s "
          f"(cached {stats['cached']}, failed {stats['failed']}{eta})",
          flush=True)


def _write_manifest(manifest: dict, path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run experiments through the campaign engine (worker pool +
    content-addressed result store), print live progress and the
    aggregated tables, and optionally write the manifest JSON."""
    import tempfile

    from repro.eval.campaign import run_campaign, run_smoke
    from repro.eval.experiments import EXPERIMENTS
    from repro.eval.reporting import format_campaign_manifest

    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name, spec in EXPERIMENTS.items():
            print(f"{name:{width}s}  {spec.title}  [{spec.provenance}]")
        return 0

    if args.smoke:
        store = args.store or tempfile.mkdtemp(prefix="repro-smoke-")
        first, second = run_smoke(store, jobs=args.jobs or 2,
                                  progress=_progress)
        t1, t2 = first.totals, second.totals
        print(f"smoke pass 1: {t1['executed']} executed, "
              f"{t1['cached']} cached, {t1['failed']} failed")
        print(f"smoke pass 2: {t2['executed']} executed, "
              f"{t2['cached']} cached, {t2['failed']} failed")
        if t1["failed"] or t2["failed"]:
            print("smoke FAILED: cells failed")
            return 1
        if t2["cached"] != t2["cells"] or t2["executed"] != 0:
            print("smoke FAILED: second pass was not 100% cache hits")
            return 1
        print("smoke OK: resume served every cell from the store")
        return 0

    if not args.experiments:
        raise SystemExit("name experiments to run (or 'all'); "
                         "see: repro campaign --list")
    store = args.store if args.store is not None else ".repro-store"
    report = run_campaign(
        args.experiments,
        workloads=args.workloads or None,
        scale=args.scale,
        jobs=args.jobs,
        store_dir=store,
        force=args.force,
        timeout=args.timeout,
        retries=args.retries,
        serial=args.serial,
        progress=_progress,
        collect_metrics=args.cell_metrics,
        collect_decisions=args.cell_decisions,
    )
    print()
    for name in report.experiments:
        print(format_table(report.results[name],
                           title=f"{name}: {EXPERIMENTS[name].title}"))
        print()
    print(format_campaign_manifest(report.manifest))
    if args.manifest:
        _write_manifest(report.manifest, args.manifest)
        print(f"\nwrote manifest to {args.manifest} "
              f"(view with: repro inspect {args.manifest})")
    return 2 if report.failed_cells else 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Artifact-evaluation mode: regenerate every figure into a
    directory as text tables, from one serial campaign whose manifest
    (every figure's per-workload values) lands next to them."""
    from pathlib import Path

    from repro.eval.campaign import run_campaign

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    numbers = sorted(FIGURES, key=int)
    if args.scale < 0.9:
        numbers.remove("16")
        print("figure 16: skipped (needs --scale >= 1.0 for realistic L2 "
              "thrash; rerun with --scale 1.0)")
    report = run_campaign([f"fig{number}" for number in numbers],
                          scale=args.scale, serial=True, progress=_progress)
    for number in numbers:
        as_overheads, title = FIGURES[number]
        result = report.results[f"fig{number}"]
        text = (format_overheads(result, title=title) if as_overheads
                else format_table(result, percent=True, title=title))
        (outdir / f"fig{number}.txt").write_text(text + "\n")
        print(f"  -> {outdir / f'fig{number}.txt'}")

    hw = exp.table9_hardware_overhead()
    (outdir / "table9.txt").write_text(
        "\n".join(f"{k}: {v}" for k, v in hw.items()) + "\n"
    )
    _write_manifest(report.manifest, outdir / "manifest.json")
    print(f"wrote {outdir / 'manifest.json'} "
          f"({report.totals['failed']} failed cell(s))")
    return 2 if report.failed_cells else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive security support for heterogeneous GPU memory "
                    "(HPCA 2022) - reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate schemes on one workload")
    p_run.add_argument("--workload", required=True, choices=BENCHMARK_NAMES)
    p_run.add_argument("--scheme", nargs="+", default=["pssm", "shm"],
                       help="scheme names (Table VIII)")
    p_run.add_argument("--scale", type=float, default=0.25)
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON file "
                            "(Perfetto / chrome://tracing)")
    p_run.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write cycle-window metrics as JSONL")
    p_run.add_argument("--window-cycles", type=float, default=None,
                       help="sampling window size in cycles "
                            "(default: baseline cycles / 100)")
    p_run.set_defaults(func=cmd_run)

    p_ins = sub.add_parser(
        "inspect", help="print a time-sliced table from --metrics-out JSONL"
    )
    p_ins.add_argument("path", nargs="?", default=None,
                       help="JSONL file written by run --metrics-out "
                            "(not needed with --host-profile)")
    p_ins.add_argument("--run", default=None,
                       help="workload/scheme run to show (default: first)")
    p_ins.add_argument("--limit", type=int, default=40,
                       help="max table rows; longer series are merged")
    p_ins.add_argument("--phases", action="store_true",
                       help="per-kernel traffic breakdown instead of windows")
    p_ins.add_argument("--cells", action="store_true",
                       help="campaign manifests: list every cell, not just "
                            "averages and failures")
    p_ins.add_argument("--type", default=None,
                       help="--decisions: only this decision type")
    p_ins.add_argument("--host-profile", action="store_true",
                       help="run each scheme under a SIGPROF stack sampler "
                            "and report %% host time per simulator layer "
                            "(Unix only; no PATH needed)")
    p_ins.add_argument("--profile-json", default=None, metavar="PATH",
                       help="--host-profile: also write the per-run "
                            "sample report as JSON (CI artifact)")
    p_ins.add_argument("--decisions", action="store_true",
                       help="run workloads with a decision ledger attached "
                            "and show per-region decision timelines with "
                            "misprediction-cost attribution (no PATH "
                            "needed; filter with --region/--kernel/--type)")
    p_ins.add_argument("--region", type=int, default=None,
                       help="--decisions: only this region/chunk ID")
    p_ins.add_argument("--kernel", type=int, default=None,
                       help="--decisions: only this kernel index")
    p_ins.add_argument("--decisions-out", default=None, metavar="PATH",
                       help="--decisions: write the canonical JSONL export "
                            "(check with repro.obs.validate --decisions)")
    p_ins.add_argument("--decisions-trace", default=None, metavar="PATH",
                       help="--decisions: write decision spans as a Chrome "
                            "trace-event JSON file")
    p_ins.add_argument("--workload", default="atax",
                       choices=list(BENCHMARK_NAMES) + ["ctr-hammer"],
                       help="--host-profile/--decisions: workload to run "
                            "(ctr-hammer is a --decisions demo that forces "
                            "counter-overflow decisions)")
    p_ins.add_argument("--scheme", nargs="+", default=["pssm", "shm"],
                       help="--host-profile/--decisions: schemes to run")
    p_ins.add_argument("--scale", type=float, default=0.1,
                       help="--host-profile/--decisions: workload scale")
    p_ins.set_defaults(func=cmd_inspect)

    p_bench = sub.add_parser(
        "bench",
        help="paired perfbench runs of the working tree against a git "
             "revision; exit 3 on a regression beyond BENCHMARK.json's "
             "bounds",
    )
    p_bench.add_argument("base", metavar="BASE",
                         help="git revision to compare against (e.g. HEAD, "
                              "HEAD^, main)")
    p_bench.add_argument("workloads", nargs="*", default=[],
                         metavar="WORKLOAD", type=_bench_workload,
                         help="BENCHMARK.json workloads to run (default: "
                              "all)")
    p_bench.set_defaults(func=cmd_bench)

    p_camp = sub.add_parser(
        "campaign",
        help="run experiments on a worker pool with a resumable store",
    )
    p_camp.add_argument("experiments", nargs="*",
                        help="experiment names (see --list) or 'all'")
    p_camp.add_argument("--list", action="store_true",
                        help="list registered experiments and exit")
    p_camp.add_argument("--smoke", action="store_true",
                        help="CI smoke: tiny 2x2 campaign twice, assert the "
                             "second pass is 100%% cache hits")
    p_camp.add_argument("--workloads", nargs="*", default=None,
                        choices=BENCHMARK_NAMES,
                        help="restrict to these workloads "
                             "(default: each experiment's own set)")
    p_camp.add_argument("--scale", type=float, default=0.25)
    p_camp.add_argument("--jobs", type=_worker_count, default=None,
                        help="worker processes, at least 1 "
                             "(default: CPU count; smoke: 2)")
    p_camp.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory "
                             "(default: .repro-store; smoke: a temp dir)")
    p_camp.add_argument("--force", action="store_true",
                        help="re-run the selected experiments' cells even "
                             "if cached")
    p_camp.add_argument("--timeout", type=float, default=900.0,
                        help="per-cell wall-clock budget in seconds")
    p_camp.add_argument("--retries", type=int, default=1,
                        help="retries per failed/killed cell")
    p_camp.add_argument("--serial", action="store_true",
                        help="run in-process on one shared runner "
                             "(identical results, no pool)")
    p_camp.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the campaign manifest JSON here")
    p_camp.add_argument("--cell-metrics", action="store_true",
                        help="run executed cells under an observer and "
                             "merge each worker's simulation metrics into "
                             "the manifest's metrics block")
    p_camp.add_argument("--cell-decisions", action="store_true",
                        help="attach a decision ledger to every executed "
                             "cell; summaries land in the manifest")
    p_camp.set_defaults(func=cmd_campaign)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure")
    p_fig.add_argument("number", help="figure number (5, 10-16)")
    p_fig.add_argument("--workloads", nargs="*", default=None,
                       choices=BENCHMARK_NAMES)
    p_fig.add_argument("--scale", type=float, default=0.25)
    p_fig.add_argument("--chart", action="store_true",
                       help="render as a bar chart instead of a table")
    p_fig.set_defaults(func=cmd_figure)

    p_suite = sub.add_parser("suite", help="inspect the benchmark suite")
    p_suite.add_argument("--list", action="store_true")
    p_suite.add_argument("--workloads", nargs="*", default=None,
                         choices=BENCHMARK_NAMES)
    p_suite.add_argument("--scale", type=float, default=0.25)
    p_suite.set_defaults(func=cmd_suite)

    p_wl = sub.add_parser(
        "workloads",
        help="composable suites: list patterns/templates, describe a "
             "spec, emit a trace (see docs/workloads.md)",
    )
    p_wl.add_argument("--describe", default=None, metavar="NAME|SPEC",
                      help="print the composed phase plan of a "
                           "multi-tenant template name or a JSON/TOML "
                           "spec file")
    p_wl.add_argument("--spec", default=None, metavar="PATH",
                      help="spec file to build (synonym for --describe "
                           "with a path; combine with --emit-trace)")
    p_wl.add_argument("--emit-trace", default=None, metavar="OUT",
                      help="build the spec and write a trace file "
                           "(.json = v1 document, .gz = v2 stream)")
    p_wl.add_argument("--scale", type=float, default=1.0,
                      help="build scale (buffer sizes and access counts)")
    p_wl.set_defaults(func=cmd_workloads)

    p_hw = sub.add_parser("hardware", help="print Table IX hardware costs")
    p_hw.set_defaults(func=cmd_hardware)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate every figure into a directory"
    )
    p_repro.add_argument("--outdir", default="results")
    p_repro.add_argument("--scale", type=float, default=0.5)
    p_repro.set_defaults(func=cmd_reproduce)

    p_diff = sub.add_parser(
        "diff", help="compare the values of two campaign manifests")
    p_diff.add_argument("old", help="manifest JSON (campaign --manifest, "
                                    "or reproduce's manifest.json)")
    p_diff.add_argument("new")
    p_diff.add_argument("--threshold", type=float, default=0.01,
                        help="exit 3 when any |delta| exceeds this")
    p_diff.set_defaults(func=cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
