"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-fig12 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs as cold passes, untraced, until
``--seconds`` would be exceeded by another pass (at least one pass),
and the end-to-end metrics are printed as medians over passes.  With
``--trace 1`` it runs one untraced pass and one traced pass (serial),
prints every per-layer metric with the end-to-end metric it should
move, checks that tracing left every result byte-identical, and writes
the spans to ``.perfbench/``.  Either way the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from a checkout of the repository (it needs ``src/``
and ``tests/golden/``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-fig12", "golden-matrix", "churn-pool")
#: Pool width for churn-pool: nproc, capped so that the load is the
#: same on larger hosts.
MAX_JOBS = 2


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report_failures(passes) -> None:
    bad = [(p.workload, c) for p in passes for c in p.cells if not c.ok]
    for workload, cell in bad[:20]:
        print(f"  FAILED {workload} {cell.key}: {cell.error}")
    if len(bad) > 20:
        print(f"  ... {len(bad) - 20} more failed cells")
    for p in passes:
        for note in p.notes:
            print(f"  FAILED {p.workload}: {note}")


def _mark_diverged(reference, other, why: str) -> None:
    """Fail every cell of ``other`` whose output differs from the same
    cell of ``reference``."""
    expected = {c.key: c.document for c in reference.cells}
    for cell in other.cells:
        if cell.ok and cell.document != expected.get(cell.key):
            cell.ok = False
            cell.error = why


def run_untraced(args, workloads, metrics, jobs: int):
    ctx = workloads.Context(seed=args.seed, jobs=jobs, tmp=OUT / "tmp")
    run = workloads.WORKLOADS[args.workload]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run(ctx))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].raw_wall_s > args.seconds:
            break
    for later in passes[1:]:
        _mark_diverged(passes[0], later, "output differs between passes")
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(p.failed for p in passes)
    values = metrics.end_to_end(passes, peak_rss_mb(), attempted, failed)
    p50, cell_tail, note = metrics.cell_times(passes)
    units = {m.name: m.unit for m in metrics.END_TO_END}
    print(f"perfbench {args.workload}: seed {args.seed}, {len(passes)} "
          f"cold pass(es), jobs {passes[0].jobs}, untraced; host times at "
          f"reference speed (raw wall "
          f"{', '.join(f'{p.raw_wall_s:.3f}' for p in passes)} s)")
    for m in metrics.END_TO_END:
        print(f"  {m.name:<15} = {_fmt(values[m.name]):>12} {m.unit:<8} "
              f"{m.meaning}")
    print(f"  fail_frac       = {_fmt(failed / attempted):>12} "
          f"({failed} of {attempted} cells)")
    print(f"  cell_s_p50      = {_fmt(p50):>12} s        (per-layer metric)")
    print(f"  cell_s_tail     = {_fmt(cell_tail):>12} s        ({note})")
    if passes[0].fig12_series:
        from perfbench.checks import fig12_err_pp
        print(f"  fig12_err_pp    = "
              f"{_fmt(fig12_err_pp(passes[0].fig12_series)):>12} pp "
              f"(simulated; vs the paper's Fig. 12 averages)")
    _describe_inputs(args, workloads, passes[0])
    _report_failures(passes)
    return attempted, failed, any(p.notes for p in passes), {
        name: {"value": values[name], "unit": units[name]}
        for name in units}


def run_traced(args, workloads, metrics, jobs: int):
    from perfbench.spans import Tracer
    from perfbench.speed import SpeedMeter

    untraced = workloads.WORKLOADS[args.workload](workloads.Context(
        seed=args.seed, jobs=jobs, tmp=OUT / "tmp",
        meter=SpeedMeter(enabled=False)))
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.WORKLOADS[args.workload](workloads.Context(
            seed=args.seed, jobs=1, tmp=OUT / "tmp",
            meter=SpeedMeter(enabled=False), resume=False))
    finally:
        tracer.unwrap_all()
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    _mark_diverged(untraced, traced, "traced output differs from untraced")
    values = metrics.per_layer(untraced, traced, tracer)
    print(f"perfbench {args.workload}: seed {args.seed}, traced serial pass "
          f"+ untraced pass (jobs {untraced.jobs}); spans in "
          f"{spans_path.relative_to(ROOT)}")
    for m in metrics.PER_LAYER:
        print(f"  {m.name:<27} = {_fmt(values[m.name]):>12} {m.unit:<8} "
              f"-> {m.moves} on {m.on}")
    print(f"  traced digest {'==' if traced.digest == untraced.digest else '!='}"
          f" untraced digest")
    _describe_inputs(args, workloads, untraced)
    _report_failures([untraced, traced])
    attempted = len(untraced.cells) + len(traced.cells)
    failed = untraced.failed + traced.failed
    return attempted, failed, bool(untraced.notes or traced.notes), {
        m.name: {"value": values[m.name], "unit": m.unit}
        for m in metrics.PER_LAYER}


def _describe_inputs(args, workloads, first) -> None:
    print(f"  digest: sha256:{first.digest}")
    if args.workload == "churn-pool":
        print(f"  churn suites seeded: phase_churn_spec(seed="
              f"{workloads.PHASE_CHURN_SEED + args.seed}), contention_spec("
              f"seed={workloads.CONTENTION_SEED + args.seed})")
    else:
        print("  --seed is inert here: Table VII models seed from crc32 of "
              "their names")


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import metrics, workloads

    jobs = max(1, min(MAX_JOBS, len(os.sched_getaffinity(0))))
    runner = run_traced if args.trace else run_untraced
    attempted, failed, notes, values = runner(args, workloads, metrics, jobs)
    print(json.dumps({"correct": failed == 0 and not notes,
                      "attempted": attempted, "failed": failed,
                      "metrics": values}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
