"""The benchmark's three workloads, each run as one cold pass.

All three are batch jobs driven from one process, with a single caller
that starts the next cell after the previous one returns (a closed
loop); ``churn-pool`` fans its cells out over a worker pool of
``min(nproc, 2)`` processes.  Every pass starts cold: a fresh
``Runner`` and, for ``churn-pool``, an empty temporary result store.

``--seed`` changes only ``churn-pool``'s composed suites.  Each Table
VII model seeds itself from crc32 of its name and the golden oracle
pins those seeds, so the other two workloads are seed-inert.
"""

from __future__ import annotations

import json
import multiprocessing
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.common.config import SimConfig
from repro.eval.campaign import ExperimentSpec, JobSpec, run_campaign, \
    run_cells_serial
from repro.eval.experiments import (DEFAULT_CHURN_LEVELS, EXPERIMENTS,
                                    LEARNED_CONTENTION_TENANTS,
                                    LEARNED_SCHEMES)
from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner
from repro.workloads.multitenant import contention_spec, phase_churn_spec
from repro.workloads.suite import BENCHMARK_NAMES

from perfbench.checks import (PAPER_FIG12_OVERHEAD_PCT, canonical,
                              cell_document, digest, invariant_errors)
from perfbench.speed import SpeedMeter

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "golden_smoke.json"

#: Trace scale of paper-fig12 and churn-pool (golden-matrix takes the
#: oracle's own scale).  At 0.1 a cold pass takes 15-25 s on a 2-core
#: x86 host, long enough to steady host-time medians.
FIG12_SCALE = 0.1
CHURN_SCALE = 0.1
#: Pool cells whose runtime exceeds this are failed (then retried once).
CELL_TIMEOUT_S = 120.0
#: The composed suites' default seeds (phase_churn_spec / contention_spec):
#: --seed 0 reproduces ablation_learned_policies' composed cells.
PHASE_CHURN_SEED = 2241
CONTENTION_SEED = 1701
#: How long to wait for pool workers to exit after a campaign.
REAP_TIMEOUT_S = 30.0

clock = time.perf_counter


@dataclass
class Cell:
    key: str
    runtime: float
    ok: bool
    error: Optional[str] = None
    attempts: int = 1
    #: False for the cell whose completion ends churn-pool's set-up.
    after_setup: bool = True
    accesses: int = 0
    document: str = ""
    result: Any = None
    baseline: Any = None
    decisions: Optional[dict] = None


@dataclass
class Pass:
    """One cold pass.  Host times are at reference speed (see
    :mod:`perfbench.speed`) unless the meter was disabled."""

    workload: str
    wall_s: float
    setup_s: float
    #: Wall of the phase that runs cells (paper-fig12/golden-matrix:
    #: after set-up; churn-pool: the whole campaign).
    cell_phase_s: float
    jobs: int
    cells: List[Cell]
    #: Unnormalised host seconds of the whole pass.
    raw_wall_s: float = 0.0
    #: scheme -> {workload -> normalised IPC} over the Fig. 12 matrix.
    fig12_series: Optional[Dict[str, Dict[str, float]]] = None
    resume_s: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest((c.key, c.document) for c in self.cells)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if not c.ok)

    @property
    def cells_per_s(self) -> float:
        after = sum(1 for c in self.cells if c.after_setup)
        return after / (self.wall_s - self.setup_s)

    @property
    def kacc_per_s(self) -> float:
        after = sum(c.accesses for c in self.cells if c.after_setup)
        return after / 1000.0 / (self.wall_s - self.setup_s)


@dataclass
class Context:
    seed: int
    jobs: int
    #: Scratch directory inside the checkout (result stores).
    tmp: Path
    meter: SpeedMeter = field(default_factory=SpeedMeter)
    #: Run churn-pool's resume pass (untraced passes only).
    resume: bool = True


def _cell(key: str, rec, golden: Optional[dict] = None,
          after_setup: bool = True) -> Cell:
    """Check one campaign record: golden byte equality when ``golden``
    is given, the invariants otherwise."""
    if not rec.ok:
        return Cell(key, rec.runtime, ok=False,
                    error=(rec.error or "failed").strip().splitlines()[-1],
                    attempts=rec.attempts, after_setup=after_setup)
    if golden is not None:
        errors = ([] if canonical(serialize_run_result(rec.result))
                  == canonical(golden) else ["differs from golden oracle"])
    else:
        errors = invariant_errors(rec.result, rec.baseline)
    return Cell(key, rec.runtime, ok=not errors,
                error="; ".join(errors) or None, attempts=rec.attempts,
                after_setup=after_setup, accesses=rec.result.l2.accesses,
                document=cell_document(rec.result, rec.baseline,
                                       rec.decisions),
                result=rec.result, baseline=rec.baseline,
                decisions=rec.decisions)


def _key(job: JobSpec) -> str:
    return f"{job.experiment}/{job.series}/{job.workload}"


def _serial(ctx: Context, workload: str, runner, names: List[str],
            jobs: List[JobSpec], golden_cells: Optional[dict] = None):
    """Set up (build + calibrate ``names``) then run ``jobs`` serially
    on ``runner``; returns the pass and the campaign records."""
    meter = ctx.meter
    with meter:
        first = meter.mark()
        start = clock()
        for name in names:
            runner.workload(name)
        for name in names:
            runner.calibration(name)
        setup_end = clock()
        middle = meter.mark()
        records = run_cells_serial(runner, jobs, strict=False)
        end = clock()
        last = meter.mark()
    speed = meter.factor(middle, last)
    cells = []
    for rec in records:
        golden = None
        if golden_cells is not None and rec.job.experiment == "golden":
            golden = golden_cells[f"{rec.job.workload}/{rec.job.scheme}"]
        cell = _cell(_key(rec.job), rec, golden)
        cell.runtime *= speed
        cells.append(cell)
    setup = meter.interval(start, setup_end, first, middle)
    phase = meter.interval(setup_end, end, middle, last)
    return Pass(workload, setup + phase, setup, phase, 1, cells,
                raw_wall_s=end - start), records


def _fig12_series(records) -> Dict[str, Dict[str, float]]:
    fig12 = [r for r in records
             if r.ok and r.job.series in PAPER_FIG12_OVERHEAD_PCT]
    return EXPERIMENTS["fig12"].aggregate(fig12).series


def paper_fig12(ctx: Context) -> Pass:
    """The Fig. 12 matrix, exactly as ``fig12_overall_ipc`` runs it."""
    runner = Runner(scale=FIG12_SCALE)
    spec = EXPERIMENTS["fig12"]
    jobs = spec.jobs(None, runner.config, runner.scale)
    run, records = _serial(ctx, "paper-fig12", runner,
                           list(BENCHMARK_NAMES), jobs)
    run.fig12_series = _fig12_series(records)
    return run


def golden_matrix(ctx: Context) -> Pass:
    """Every golden-oracle cell, then SHM under the two non-FIFO DRAM
    schedulers (each re-calibrates), serially on one runner."""
    golden = json.loads(GOLDEN.read_text())
    runner = Runner(scale=golden["scale"])
    jobs = [JobSpec(experiment="golden", workload=name, scheme=scheme,
                    series=scheme, scale=runner.scale, config=runner.config)
            for name in golden["workloads"] for scheme in golden["schemes"]]
    jobs += [job for job in EXPERIMENTS["ablation_dram_scheduler"].jobs(
                 None, runner.config, runner.scale)
             if job.series != "fifo"]
    if len(golden["cells"]) != len(golden["workloads"]) * len(
            golden["schemes"]):
        raise RuntimeError("golden oracle does not hold its full matrix")
    run, records = _serial(ctx, "golden-matrix", runner,
                           golden["workloads"], jobs, golden["cells"])
    run.fig12_series = _fig12_series(
        [r for r in records if r.job.experiment == "golden"])
    return run


def churn_specs(seed: int) -> List[dict]:
    """churn-pool's composed suites for one benchmark seed."""
    specs = [phase_churn_spec(churn, seed=PHASE_CHURN_SEED + seed)
             for churn in DEFAULT_CHURN_LEVELS]
    specs.append(contention_spec(LEARNED_CONTENTION_TENANTS,
                                 seed=CONTENTION_SEED + seed))
    return specs


def _churn_experiment(seed: int) -> ExperimentSpec:
    specs = churn_specs(seed)

    def jobs(_workloads, config: SimConfig, scale: float) -> List[JobSpec]:
        return [JobSpec(experiment="churn-pool", workload=spec["name"],
                        scheme=scheme, series=scheme, scale=scale,
                        config=config, workload_spec=spec,
                        collect_decisions=True)
                for scheme in LEARNED_SCHEMES for spec in specs]

    learned = EXPERIMENTS["ablation_learned_policies"]
    return ExperimentSpec(
        name="churn-pool",
        title="Composed cells of ablation_learned_policies, seeded",
        provenance=learned.provenance, jobs=jobs,
        aggregate=learned.aggregate)


def reap_children(timeout: float = REAP_TIMEOUT_S) -> None:
    """Wait for every child process (pool workers) to exit; terminate
    any that outlive ``timeout``."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            break
        time.sleep(0.02)


def churn_pool(ctx: Context) -> Pass:
    """The seeded churn suites x learned/heuristic schemes through the
    campaign engine: pool, fresh store, then an all-cached resume."""
    experiment = _churn_experiment(ctx.seed)
    name = experiment.name
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ctx.tmp) as store:
        kwargs = dict(scale=CHURN_SCALE, jobs=ctx.jobs, store_dir=store,
                      specs={name: experiment}, timeout=CELL_TIMEOUT_S)
        finished: Dict[str, float] = {}

        def progress(rec, _stats) -> None:
            finished[rec.key] = clock() - start

        meter = ctx.meter
        first = meter.mark()
        with meter, meter.children(ctx.tmp / "speed"):
            start = clock()
            report = run_campaign([name], progress=progress, **kwargs)
            wall = clock() - start
            reap_children()
            resume_s = 0.0
            resumed = None
            if ctx.resume:
                start_resume = clock()
                resumed = run_campaign([name], **kwargs)
                resume_s = clock() - start_resume
                reap_children()
        speed = meter.factor(first, meter.mark())

    setup = min(finished.values()) if finished else wall
    cells = []
    for rec in report.records[name]:
        cell = _cell(_key(rec.job), rec,
                     after_setup=finished.get(rec.key, wall) > setup)
        cell.runtime *= speed
        cells.append(cell)
    run = Pass(name, wall * speed, setup * speed, wall * speed, ctx.jobs,
               cells, raw_wall_s=wall, resume_s=resume_s * speed)
    if resumed is not None:
        _check_resume(run, report, resumed)
    return run


def _check_resume(run: Pass, report, resumed) -> None:
    """The resume pass must serve every cell from the store and
    reproduce every cell and the aggregate exactly."""
    name = run.workload
    documents = {c.key: c.document for c in run.cells}
    for cell, rec in zip(run.cells, resumed.records[name]):
        if not rec.cached or not rec.ok or cell_document(
                rec.result, rec.baseline, rec.decisions) != documents[
                _key(rec.job)]:
            cell.ok = False
            cell.error = "resume pass did not reproduce the cell from store"
    if resumed.results[name].series != report.results[name].series:
        run.notes.append("resume aggregate differs")
        for cell in run.cells:
            cell.ok = False
            cell.error = "resume aggregate differs"


WORKLOADS: Dict[str, Callable[[Context], Pass]] = {
    "paper-fig12": paper_fig12,
    "golden-matrix": golden_matrix,
    "churn-pool": churn_pool,
}
