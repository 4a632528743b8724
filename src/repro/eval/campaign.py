"""The experiment-campaign engine: batched, fault-tolerant, resumable
execution of figure/ablation sweeps.

Every experiment in :mod:`repro.eval.experiments` declares its work as
a flat **job matrix** — one :class:`JobSpec` per (workload, scheme,
config-override) cell — plus a *pure* aggregation step that folds the
finished cells into an :class:`ExperimentResult`.  This module runs
those matrices two ways, with identical results:

* **Serial** (:func:`run_cells_serial`): in-process against one shared
  :class:`repro.sim.runner.Runner` — what
  :func:`repro.eval.experiments.run_experiment` (``repro figure``)
  uses, fastest for a handful of cells because it starts no processes
  and builds each workload once.
* **Campaign** (:func:`run_campaign`): every cell runs through the
  pool's worker entry point, :func:`_cell_worker`, under
  :func:`repro.sim.parallel.execute_jobs` (per-job timeouts, bounded
  retries with backoff) — on a ``ProcessPoolExecutor`` worker pool, or
  in-process, one cell after another, at ``jobs=1``, where the cells
  share the serial path's runners.  Every completed
  cell is persisted into a content-addressed
  :class:`repro.eval.results_io.ResultStore`, and a re-run resumes
  instantly from cached cells (``force=True`` selectively invalidates
  just the requested experiments' cells).  A failed cell is recorded
  with its traceback and excluded from aggregates instead of killing
  the sweep.

Both paths calibrate each workload once per **calibration group** —
the cells that share a workload, its scale and the
:func:`~repro.sim.runner.calibration_key` of their configs, which the
runner defines from what its calibration run reads
(:func:`_calibration_group`).  The serial path shares calibration
caches between runners with equal keys, and so does an in-process
campaign, whose cells all run on one such set of runners.  A pool
campaign runs each group's first cell in a first wave and ships that
cell's set-up with the group's other cells in a second wave: its
built :class:`~repro.workloads.base.Workload` and its calibration,
pickled together and zlib-compressed.  A follower registers the
workload and seeds the calibration, so it neither builds the trace
nor calibrates.

Cells are **deduplicated by content address** across experiments: the
(atax, SHM, default-config) run that Fig. 12, Fig. 13 and Fig. 16 all
need is simulated once and aggregated three times.  The address —
:func:`cell_key` — hashes the full cell identity (SimConfig, workload
(+ variant overrides), scheme, scheme overrides, scale, code version),
and deliberately *excludes* presentation fields (experiment name,
series label).

Campaign runs emit a **manifest** (JSON, ``campaign_format: 1``), the
one record a campaign explains itself from: per experiment, the
aggregated ``series`` its table prints and its averages; per cell, its
status, runtime, attempts, the reason for each retried attempt, any
error and its decision-ledger summary.  ``repro inspect`` renders a
manifest and ``repro diff`` compares two (:func:`manifest_values`).
Per-cell runtimes also feed a :class:`repro.obs.metrics.MetricsRegistry`
so live progress can show an ETA; the manifest's ``metrics`` block is
its snapshot.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace as dc_replace
from functools import partial
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.policies.registry import resolve_scheme
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import NULL_OBSERVER
from repro.sim.parallel import execute_jobs
from repro.sim.runner import Runner, calibration_key
from repro.sim.stats import RunResult, mean
from repro.eval.results_io import (
    CELL_FORMAT_VERSION,
    ResultStore,
    code_version,
    deserialize_run_result,
    serialize_run_result,
    stable_hash,
)

#: Manifest schema version (``repro inspect`` keys off this field).
MANIFEST_FORMAT = 1


# ---------------------------------------------------------------------------
# Data model: results, cells, experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """One figure/table reproduction: per-workload series by scheme.

    ``series`` maps a series label (a Table VIII scheme value such as
    ``"shm"``, or an ablation label such as ``"mats_8"``) to
    ``{workload -> value}``.  Units depend on the experiment: Figs.
    12/13/16 are normalised IPC (1.0 = unprotected), Fig. 14 is
    metadata-bytes / data-bytes, Fig. 15 is normalised energy per
    instruction, Figs. 5/10/11 are fractions in [0, 1].
    """

    experiment: str
    #: series label -> {workload -> value}
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def average(self, label: str) -> float:
        return mean(self.series[label].values())

    def averages(self) -> Dict[str, float]:
        return {label: self.average(label) for label in self.series}


@dataclass
class JobSpec:
    """One cell of an experiment's job matrix.

    A cell is fully self-describing — a fresh worker process can
    execute it with no other context: build a
    :class:`~repro.sim.runner.Runner` from ``config`` and ``scale``,
    materialise the workload (optionally a variant of
    ``workload_base`` with ``workload_overrides`` applied), then
    either profile it (``kind="profile"``, Fig. 5) or simulate
    ``scheme`` with the given scheme-config ``overrides``.

    ``experiment`` and ``series`` are presentation only: they say
    where the cell's value lands in the aggregate and are excluded
    from the cell's content address (see :func:`cell_key`).
    """

    experiment: str
    workload: str
    scheme: str = Scheme.SHM.value
    series: str = ""
    kind: str = "run"  # "run" | "profile"
    scale: float = 1.0
    config: SimConfig = field(default_factory=SimConfig)
    #: Keyword overrides forwarded to ``SimConfig.with_scheme`` (e.g.
    #: ``mac_conflict_policy="update_both"``, ``detectors=DetectorConfig(...)``).
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: When set, ``workload`` is a variant of this suite workload ...
    workload_base: Optional[str] = None
    #: ... with these fields replaced (e.g. ``bandwidth_utilization``).
    workload_overrides: Dict[str, Any] = field(default_factory=dict)
    #: When set, ``workload`` is not a suite benchmark but a composed
    #: suite spec (:mod:`repro.workloads.compose`), built by whichever
    #: runner first needs it — construction is a pure function of
    #: (spec, scale), so the serial path and the pool produce
    #: byte-identical traces.
    workload_spec: Optional[Dict[str, Any]] = None
    #: Attach an observer in the worker and ship its metrics back to
    #: the parent registry.  Execution detail, not cell identity —
    #: excluded from :func:`cell_key`.
    collect_metrics: bool = False
    #: Attach a :class:`repro.obs.decisions.DecisionLedger` for the
    #: cell's run and ship its :meth:`~DecisionLedger.summary` back in
    #: the payload.  Execution detail — excluded from :func:`cell_key`.
    collect_decisions: bool = False
    #: The set-up of the cell's calibration group — its built
    #: :class:`~repro.workloads.base.Workload` and its
    #: :class:`~repro.sim.runner.Calibration`, pickled and
    #: zlib-compressed — set by :func:`run_campaign` on a
    #: pool campaign's second wave so the worker neither builds the
    #: workload nor calibrates.  Execution detail — excluded from
    #: :func:`cell_key`.
    group_setup: Optional[bytes] = None


@dataclass
class CellRecord:
    """Terminal state of one cell within one experiment's matrix."""

    job: JobSpec
    key: str = ""
    status: str = "ok"  # "ok" | "failed"
    cached: bool = False
    result: Optional[RunResult] = None
    baseline: Optional[RunResult] = None
    profile: Optional[dict] = None
    #: Decision-ledger summary (``collect_decisions`` cells only).
    decisions: Optional[dict] = None
    error: Optional[str] = None
    runtime: float = 0.0
    attempts: int = 1
    #: Why each retried attempt failed, in order (``"worker_died"``,
    #: ``"timeout"`` or ``"exception"``); empty when the first attempt
    #: was the last.
    retries: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative form of one experiment: matrix + pure aggregation.

    ``jobs(workloads, config, scale)`` expands the experiment into its
    flat cell list (``workloads=None`` means the experiment's default
    set); ``aggregate(records)`` folds completed cells into an
    :class:`ExperimentResult` and must be pure — it sees
    deserialized :class:`RunResult` objects whether the cells ran
    serially, on the worker pool, or came from the store.
    """

    name: str
    title: str
    #: Paper provenance, e.g. ``"Fig. 12, Section VI-C"``.
    provenance: str
    jobs: Callable[[Optional[List[str]], SimConfig, float], List[JobSpec]]
    aggregate: Callable[[List[CellRecord]], ExperimentResult]


def cell_key(job: JobSpec, version: Optional[str] = None) -> str:
    """The content address of one cell.

    Hashes everything that determines the simulation's output —
    ``SimConfig``, workload identity (+ variant overrides), scheme,
    scheme overrides, scale, cell-format version and the code version
    — and nothing that is presentation (experiment name, series
    label), so identical cells are shared across experiments and a
    code change invalidates the store wholesale.
    """
    return stable_hash({
        "cell_format": CELL_FORMAT_VERSION,
        "kind": job.kind,
        "workload": job.workload,
        "workload_base": job.workload_base,
        "workload_overrides": job.workload_overrides,
        "workload_spec": job.workload_spec,
        "scheme": job.scheme if job.kind == "run" else None,
        "scale": job.scale,
        "config": job.config,
        "overrides": job.overrides,
        "code": version if version is not None else code_version(),
    })


# ---------------------------------------------------------------------------
# Cell evaluation (shared by the serial path and the worker pool)
# ---------------------------------------------------------------------------

def _ensure_workload(runner: Runner, job: JobSpec) -> None:
    """Register the job's workload variant on ``runner`` if needed."""
    if job.workload in runner._workloads:
        return
    if job.workload_spec is not None:
        from repro.workloads.compose import build_workload as build_composed
        built = build_composed(job.workload_spec, scale=job.scale)
        if built.name != job.workload:
            built = dc_replace(built, name=job.workload)
        runner.add_workload(built)
    elif job.workload_base:
        base = runner.workload(job.workload_base)
        runner.add_workload(
            dc_replace(base, name=job.workload, **job.workload_overrides)
        )


def _evaluate_cell(runner: Runner, job: JobSpec) -> Dict[str, Any]:
    """Execute one cell on ``runner``; returns the in-memory payload
    (``{"result", "baseline"}`` RunResults, or ``{"profile"}``; plus
    ``"decisions"`` for ``collect_decisions`` cells)."""
    _ensure_workload(runner, job)
    if job.kind == "profile":
        profile = runner.profile(job.workload)
        return {"profile": {
            "streaming_ratio": profile.streaming_ratio,
            "readonly_ratio": profile.readonly_ratio,
        }}
    ledger = None
    if job.collect_decisions:
        from repro.obs.decisions import DecisionLedger
        ledger = DecisionLedger()
        runner.ledger = ledger
    try:
        result = runner.run(job.workload, resolve_scheme(job.scheme),
                            **job.overrides)
    finally:
        if ledger is not None:
            from repro.obs.decisions import NULL_LEDGER as _null
            runner.ledger = _null
    payload = {"result": result, "baseline": runner.baseline(job.workload)}
    if ledger is not None:
        payload["decisions"] = ledger.summary()
    return payload


def _serialize_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in ("result", "baseline"):
        if payload.get(name) is not None:
            out[name] = serialize_run_result(payload[name])
    for name in ("profile", "decisions"):
        if payload.get(name) is not None:
            out[name] = payload[name]
    return out


def _deserialize_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in ("result", "baseline"):
        if payload.get(name) is not None:
            out[name] = deserialize_run_result(payload[name])
    for name in ("profile", "decisions"):
        if payload.get(name) is not None:
            out[name] = dict(payload[name])
    return out


def _cell_worker(job: JobSpec,
                 evaluator: Optional[_SerialEvaluator] = None
                 ) -> Dict[str, Any]:
    """Top-level worker entry point (must be picklable): one cell, a
    JSON-safe payload back.

    An in-process campaign passes the ``evaluator`` all its cells
    share, so the process builds each workload once and calibrates
    each calibration group once, as :func:`run_cells_serial` does.

    A pool worker runs each cell on a fresh runner.  A job that carries
    its group's ``group_setup`` registers the workload it holds and
    seeds the runner with its calibration, so it neither builds the
    trace nor calibrates.  A job without one builds and calibrates
    before its run and returns both as the payload's ``"group_setup"``
    bytes (the one entry that is not JSON; the parent pops it and hands
    it to the rest of the group, see :func:`run_campaign`).  Capturing
    them before the run means a follower starts from exactly what a
    fresh build and calibration give.  The workload travels as the
    object itself: its kernels' traces pickle as their arrays.  The
    parent keeps each group's bytes until the campaign ends, so they
    are compressed.

    With ``job.collect_metrics`` the cell runs under an observer and
    the payload carries its metrics as a ``"metrics"`` state dict —
    in-place registry mutation inside a pool worker is invisible to
    the parent, so the state rides home with the result and the parent
    merges it (:meth:`MetricsRegistry.merge_state`)."""
    if evaluator is None:
        runner = Runner(config=job.config, scale=job.scale)
    else:
        runner = evaluator.runner_for(job)
    calibration = None
    if job.group_setup is not None:
        workload, calibration = pickle.loads(zlib.decompress(job.group_setup))
        runner.add_workload(workload)
    _ensure_workload(runner, job)
    observer = None
    if job.collect_metrics:
        from repro.obs.observer import Observer
        observer = runner.observer = Observer(timeseries=False)
    group_setup = None
    try:
        if calibration is not None:
            runner._calibrations[job.workload] = calibration
        elif evaluator is None:
            group_setup = zlib.compress(pickle.dumps(
                (runner.workload(job.workload),
                 runner.calibration(job.workload)),
                pickle.HIGHEST_PROTOCOL), 1)
        payload = _serialize_payload(_evaluate_cell(runner, job))
    finally:
        runner.observer = NULL_OBSERVER
    if observer is not None:
        payload["metrics"] = observer.metrics.state()
    if group_setup is not None:
        payload["group_setup"] = group_setup
    return payload


def _workload_identity(job: JobSpec) -> str:
    """What a cell's workload is built from besides its name."""
    return stable_hash({"base": job.workload_base,
                        "overrides": job.workload_overrides,
                        "spec": job.workload_spec})


def _calibration_group(job: JobSpec) -> tuple:
    """Cells with equal groups can share one calibration: same
    workload name and identity, same scale, and configs with the same
    :func:`~repro.sim.runner.calibration_key` (so MDC-size and
    ``critical_first`` cells join their FIFO cells' group, while a
    ``banked`` cell starts its own)."""
    return (job.workload, _workload_identity(job), job.scale,
            calibration_key(job.config))


def _calibration_waves(jobs: Sequence[JobSpec],
                       n_workers: int) -> Tuple[List[int], List[int]]:
    """Split the pool's cells (by index) into two waves.

    Wave 1 holds the first cell of every calibration group, in order.
    When that is fewer cells than ``n_workers``, the next cells join it
    until it has ``n_workers`` (they calibrate themselves), so a pool
    never starts fewer cells than it did before calibrations were
    shared.  Wave 2 holds the rest.
    """
    seen = set()
    leaders: List[int] = []
    followers: List[int] = []
    for index, job in enumerate(jobs):
        group = _calibration_group(job)
        (followers if group in seen else leaders).append(index)
        seen.add(group)
    top_up = max(0, n_workers - len(leaders))
    return sorted(leaders + followers[:top_up]), followers[top_up:]


class _SerialEvaluator:
    """Executes cells in-process, one runner per (config, scale).

    The parent runner serves the cells at its own config and scale.
    Every other (config, scale) gets a runner of its own, made on first
    use, which shares the workload and L2-resolution caches of the
    runners at its scale and the calibration cache of those whose
    config has the same :func:`~repro.sim.runner.calibration_key` — so
    the MDC ablation and ``critical_first`` cells reuse the FIFO
    calibrations, while a ``banked`` cell calibrates for itself once,
    on the FIFO cells' resolved L2.

    Runners cache workloads and calibrations by name, so at each scale
    the first workload seen under a name owns it in the shared caches.
    A later cell that builds a different workload under the same name
    (another seed of a composed suite) runs on runners whose caches are
    private to its workload identity instead.
    """

    def __init__(self, runner: Runner) -> None:
        #: (workload name, scale) -> identity of the workload the shared
        #: caches at that scale hold under the name.
        self._owners: Dict[Tuple[str, float], str] = {}
        # Runners share caches within a *domain*: (scale, None) for the
        # workloads that own their names at that scale, (scale,
        # identity) for one identity that does not.
        domain = (runner.scale, None)
        #: (config, domain) -> its runner.
        self._runners: Dict[tuple, Runner] = {(runner.config, domain): runner}
        #: domain -> its workload cache.
        self._workloads: Dict[tuple, dict] = {domain: runner._workloads}
        #: domain -> its L2-resolution cache.
        self._resolutions: Dict[tuple, dict] = {
            domain: runner._resolutions}
        #: (domain, calibration key) -> its calibration cache.
        self._calibrations: Dict[tuple, dict] = {
            (domain, calibration_key(runner.config)): runner._calibrations}

    def runner_for(self, job: JobSpec) -> Runner:
        identity = _workload_identity(job)
        owner = self._owners.setdefault((job.workload, job.scale), identity)
        domain = (job.scale, None if owner == identity else identity)
        runner = self._runners.get((job.config, domain))
        if runner is None:
            runner = Runner(config=job.config, scale=job.scale)
            runner._workloads = self._workloads.setdefault(
                domain, runner._workloads)
            runner._resolutions = self._resolutions.setdefault(
                domain, runner._resolutions)
            runner._calibrations = self._calibrations.setdefault(
                (domain, calibration_key(job.config)), runner._calibrations)
            self._runners[(job.config, domain)] = runner
        return runner

    def evaluate(self, job: JobSpec) -> Dict[str, Any]:
        return _evaluate_cell(self.runner_for(job), job)


def run_cells_serial(runner: Runner, jobs: Sequence[JobSpec],
                     strict: bool = True) -> List[CellRecord]:
    """Execute a job matrix in-process on ``runner``, the serial path
    of :func:`repro.eval.experiments.run_experiment`.

    With ``strict=True`` (``run_experiment``'s behaviour) a cell's
    exception propagates; with ``strict=False`` it is captured on the
    record, as a campaign would capture it.
    """
    evaluator = _SerialEvaluator(runner)
    records: List[CellRecord] = []
    for job in jobs:
        start = time.monotonic()
        try:
            payload = evaluator.evaluate(job)
        except Exception:
            if strict:
                raise
            records.append(CellRecord(
                job=job, status="failed", error=traceback.format_exc(),
                runtime=time.monotonic() - start,
            ))
            continue
        records.append(CellRecord(
            job=job,
            result=payload.get("result"),
            baseline=payload.get("baseline"),
            profile=payload.get("profile"),
            decisions=payload.get("decisions"),
            runtime=time.monotonic() - start,
        ))
    return records


# ---------------------------------------------------------------------------
# The campaign engine
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Everything one campaign produced."""

    experiments: List[str]
    #: experiment -> aggregated figure data (failed cells excluded).
    results: Dict[str, ExperimentResult]
    #: experiment -> every cell record, including failures.
    records: Dict[str, List[CellRecord]]
    #: The ``campaign_format: 1`` JSON document ``repro inspect`` renders.
    manifest: dict

    @property
    def totals(self) -> dict:
        return self.manifest["totals"]

    @property
    def failed_cells(self) -> List[CellRecord]:
        return [r for recs in self.records.values() for r in recs
                if not r.ok]


def campaign_id(names: Sequence[str], workloads: Optional[List[str]],
                scale: float, version: str) -> str:
    """The deterministic ID of one campaign *identity* (what is being
    swept, not when/how): re-running the same sweep yields the same
    ID, so the manifests of two runs say whether they swept the same
    matrix."""
    return stable_hash({
        "experiments": list(names),
        "workloads": workloads,
        "scale": scale,
        "code": version,
    })[:12]


def run_campaign(
    experiments: Union[str, Sequence[str]],
    workloads: Optional[List[str]] = None,
    scale: float = 0.25,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    store_dir: Optional[Union[str, os.PathLike]] = None,
    force: bool = False,
    timeout: Optional[float] = None,
    retries: int = 1,
    specs: Optional[Dict[str, ExperimentSpec]] = None,
    progress: Optional[Callable[[CellRecord, dict], None]] = None,
    collect_metrics: bool = False,
    collect_decisions: bool = False,
) -> CampaignReport:
    """Expand the named experiments into one deduplicated cell matrix,
    execute it, and aggregate per experiment.

    ``experiments`` is a name, a list of names, or ``["all"]`` (every
    registered experiment).  ``store_dir`` enables the
    content-addressed result store: cached cells are served without
    simulation, and ``force=True`` re-runs (and overwrites) exactly
    the selected experiments' cells.  ``jobs`` is the worker-pool
    width, at least 1 (default: the machine's core count); at 1 the
    cells run in-process, one after another, through the same worker
    entry point, all on one :class:`_SerialEvaluator`, so each
    workload is built once.  Either way each calibration group
    calibrates once (see the module docstring).

    ``progress`` fires once per terminal cell with ``(record, stats)``
    where ``stats`` carries ``done``/``failed``/``cached``/``total``
    and an ``eta_seconds`` derived from the per-cell runtime histogram
    in the campaign's metrics registry.

    Failed cells never raise: they are recorded (traceback and all) in
    the report/manifest and excluded from aggregates.  A cell's record
    lists the reason for each attempt that was retried.

    ``collect_metrics=True`` runs every *executed* cell under an
    observer and merges each worker's simulation metrics into the
    manifest's ``metrics`` block (store-cached cells carry no metrics
    to merge).

    ``collect_decisions=True`` attaches a fresh
    :class:`repro.obs.decisions.DecisionLedger` to every executed
    ``kind="run"`` cell; the ledger summary rides home in the payload
    and lands in the manifest.  Decision taps fire at decision
    granularity and leave the MEE on the code path an unledgered cell
    takes.
    """
    if specs is None:
        from repro.eval.experiments import EXPERIMENTS
        specs = EXPERIMENTS
    if isinstance(experiments, str):
        experiments = [experiments]
    names = list(experiments)
    if names == ["all"]:
        names = list(specs)
    unknown = sorted(set(names) - set(specs))
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(specs))}"
        )

    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    config = config or SimConfig()
    registry = MetricsRegistry()
    store = ResultStore(store_dir) if store_dir is not None else None
    version = code_version()
    n_workers = jobs or os.cpu_count() or 2
    started = time.monotonic()

    # -- expand and deduplicate ---------------------------------------
    exp_jobs: Dict[str, List[Tuple[JobSpec, str]]] = {
        name: [(job, cell_key(job, version))
               for job in specs[name].jobs(workloads, config, scale)]
        for name in names
    }
    unique: Dict[str, JobSpec] = {}
    for pairs in exp_jobs.values():
        for job, key in pairs:
            unique.setdefault(key, job)

    #: cell key -> its terminal record, on the first job with the key.
    done: Dict[str, CellRecord] = {}
    runtime_hist = registry.histogram("campaign.cell_runtime_s")

    def stats_snapshot() -> dict:
        return {
            "total": len(unique),
            "done": len(done),
            "failed": sum(1 for r in done.values() if not r.ok),
            "cached": sum(1 for r in done.values() if r.cached),
            "eta_seconds": (len(unique) - len(done)) * runtime_hist.average
                           / n_workers,
            "elapsed_seconds": time.monotonic() - started,
        }

    def announce(record: CellRecord) -> None:
        done[record.key] = record
        registry.counter(
            "campaign.cells_cached" if record.cached else
            "campaign.cells_ok" if record.ok else
            "campaign.cells_failed"
        ).inc()
        if progress is not None:
            progress(record, stats_snapshot())

    def record_of(key: str, payload: Dict[str, Any], **fields) -> CellRecord:
        """The record of a cell whose JSON-safe payload is in hand."""
        return CellRecord(job=unique[key], key=key,
                          **_deserialize_payload(payload), **fields)

    # -- serve from the store -----------------------------------------
    to_run: List[str] = []
    for key in unique:
        stored = None if (store is None or force) else store.get(key)
        if stored is not None:
            try:
                record = record_of(key, stored["payload"], cached=True,
                                  runtime=stored.get("runtime_s", 0.0))
            except (ValueError, KeyError, TypeError):
                # Readable JSON but an incompatible/partial payload
                # (e.g. an older cell format): drop it and re-run.
                store.invalidate(key)
            else:
                announce(record)
                continue
        to_run.append(key)

    # -- execute the rest through the pool's worker -------------------
    worker_jobs = [unique[k] for k in to_run]
    if collect_metrics:
        worker_jobs = [dc_replace(job, collect_metrics=True)
                       for job in worker_jobs]
    if collect_decisions:
        worker_jobs = [dc_replace(job, collect_decisions=True)
                       if job.kind == "run" else job
                       for job in worker_jobs]
    # In-process, every cell runs on one evaluator, which builds each
    # workload and calibrates each group once; a pool's workers run
    # each cell on a fresh runner and ship each group's set-up through
    # the parent.
    worker = _cell_worker
    if n_workers == 1:
        worker = partial(_cell_worker, evaluator=_SerialEvaluator(
            Runner(config=config, scale=scale)))
    groups = [_calibration_group(job) for job in worker_jobs]
    # Calibration group -> its leader's compressed set-up.  The parent
    # only passes the bytes on, so the wave-2 workers it forks inherit
    # no decoded workloads or calibrations.
    setups: Dict[tuple, bytes] = {}
    #: to_run index -> the reason for each of its retried attempts.
    retried: Dict[int, List[str]] = {}

    def run_wave(indices: List[int]) -> None:
        """Execute ``worker_jobs[i]`` for each ``i`` in ``indices``,
        each seeded with its group's set-up when an earlier wave
        produced one."""
        def on_outcome(outcome) -> None:
            index = indices[outcome.index]
            key = to_run[index]
            fields = dict(runtime=outcome.runtime, attempts=outcome.attempts,
                          retries=retried.pop(index, []))
            if not outcome.ok:
                announce(CellRecord(
                    job=unique[key], key=key, status="failed",
                    error=f"[{outcome.reason}] {outcome.error}", **fields))
                return
            payload = outcome.value
            setup = payload.pop("group_setup", None)
            if setup is not None:
                setups.setdefault(groups[index], setup)
            metrics_state = payload.pop("metrics", None)
            if metrics_state is not None:
                registry.merge_state(metrics_state)
            record = record_of(key, payload, **fields)
            runtime_hist.record(record.runtime)
            if store is not None:
                job = unique[key]
                store.put(key, {
                    "cell_format": CELL_FORMAT_VERSION,
                    "code_version": version,
                    "workload": job.workload,
                    "scheme": job.scheme,
                    "kind": job.kind,
                    "scale": job.scale,
                    "runtime_s": record.runtime,
                    "payload": payload,
                })
            announce(record)

        def on_retry(index: int, _attempt: int, reason: str) -> None:
            retried.setdefault(indices[index], []).append(reason)

        execute_jobs(worker,
                     [dc_replace(worker_jobs[i],
                                 group_setup=setups.get(groups[i]))
                      for i in indices],
                     jobs=n_workers, timeout=timeout, retries=retries,
                     on_outcome=on_outcome, on_retry=on_retry)

    # A leader that fails leaves its group without a set-up: its
    # followers then build and calibrate themselves.
    for wave in _calibration_waves(worker_jobs, n_workers):
        run_wave(wave)

    # -- aggregate per experiment -------------------------------------
    results: Dict[str, ExperimentResult] = {}
    records: Dict[str, List[CellRecord]] = {}
    for name in names:
        recs = [dc_replace(done[key], job=job) for job, key in exp_jobs[name]]
        records[name] = recs
        results[name] = specs[name].aggregate([r for r in recs if r.ok])

    manifest = _build_manifest(
        names=names, specs=specs, results=results, records=records,
        workloads=workloads, scale=scale, n_workers=n_workers,
        force=force, version=version, store=store, registry=registry,
        stats=stats_snapshot(),
        campaign=campaign_id(names, workloads, scale, version),
    )
    return CampaignReport(experiments=names, results=results,
                          records=records, manifest=manifest)


def _build_manifest(*, names, specs, results, records, workloads, scale,
                    n_workers, force, version, store, registry,
                    stats, campaign) -> dict:
    """Assemble the ``campaign_format: 1`` JSON document."""
    experiments = {}
    for name in names:
        recs = records[name]
        experiments[name] = {
            "title": specs[name].title,
            "provenance": specs[name].provenance,
            "averages": results[name].averages(),
            "series": results[name].series,
            "failed": sum(1 for r in recs if not r.ok),
            "cells": [{
                "key": r.key,
                "workload": r.job.workload,
                "scheme": r.job.scheme,
                "series": r.job.series,
                "kind": r.job.kind,
                "status": r.status,
                "cached": r.cached,
                "runtime_s": round(r.runtime, 4),
                "attempts": r.attempts,
                **({"retries": r.retries} if r.retries else {}),
                **({"error": r.error[:2000]} if r.error else {}),
                **({"decisions": r.decisions} if r.decisions else {}),
            } for r in recs],
        }
    return {
        "campaign_format": MANIFEST_FORMAT,
        "campaign": campaign,
        "experiments": experiments,
        "workloads": workloads,
        "scale": scale,
        "jobs": n_workers,
        "force": force,
        "code_version": version,
        "store": str(store.root) if store is not None else None,
        "quarantined": store.quarantined() if store is not None else [],
        "totals": {
            "cells": stats["total"],
            "ok": stats["done"] - stats["failed"],
            "failed": stats["failed"],
            "cached": stats["cached"],
            "executed": stats["done"] - stats["cached"],
            "references": sum(len(r) for r in records.values()),
        },
        "elapsed_seconds": round(stats["elapsed_seconds"], 3),
        "metrics": registry.snapshot(),
    }


def manifest_values(manifest: dict) -> Dict[Tuple[str, str, str], float]:
    """Every value a manifest's experiments carry, keyed by
    (experiment, series label, workload): what ``repro diff``
    compares.  Raises ``ValueError`` naming the ``series`` field when
    an experiment entry has none."""
    values = {}
    for name, entry in manifest["experiments"].items():
        if "series" not in entry:
            raise ValueError(f"experiment {name!r} has no 'series' field")
        for label, per_workload in entry["series"].items():
            for workload, value in per_workload.items():
                values[name, label, workload] = value
    return values


# ---------------------------------------------------------------------------
# The CI smoke campaign
# ---------------------------------------------------------------------------

def _smoke_jobs(workloads: Optional[List[str]], config: SimConfig,
                scale: float) -> List[JobSpec]:
    names = workloads or ["atax", "mvt"]
    return [
        JobSpec(experiment="smoke", workload=name, scheme=scheme.value,
                series=scheme.value, scale=scale, config=config)
        for scheme in (Scheme.PSSM, Scheme.SHM)
        for name in names
    ]


def _smoke_aggregate(records: List[CellRecord]) -> ExperimentResult:
    result = ExperimentResult("smoke")
    for rec in records:
        result.series.setdefault(rec.job.series, {})[rec.job.workload] = \
            rec.result.normalized_ipc(rec.baseline)
    return result


#: A deliberately tiny campaign (2 workloads x 2 schemes) used by CI to
#: prove the resume path: run, re-run, assert 100 % cache hits.
SMOKE_SPEC = ExperimentSpec(
    name="smoke",
    title="CI smoke: 2x2 matrix, resume must be 100% cached",
    provenance="CI only (no paper figure)",
    jobs=_smoke_jobs,
    aggregate=_smoke_aggregate,
)


def run_smoke(store_dir: Union[str, os.PathLike], jobs: int = 2,
              scale: float = 0.05,
              progress: Optional[Callable[[CellRecord, dict], None]] = None,
              ) -> "tuple[CampaignReport, CampaignReport]":
    """Run the smoke campaign twice against one store and return both
    reports; the caller asserts the second pass was fully cached."""
    kwargs = dict(workloads=None, scale=scale, jobs=jobs,
                  store_dir=store_dir, retries=1,
                  specs={"smoke": SMOKE_SPEC}, progress=progress)
    first = run_campaign(["smoke"], **kwargs)
    second = run_campaign(["smoke"], **kwargs)
    return first, second
