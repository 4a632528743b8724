"""Per-figure/table experiment drivers, declared as job matrices.

Each experiment of the paper's evaluation exists in two equivalent
forms:

* a classic **driver function** (``fig12_overall_ipc(runner, ...)``)
  that executes serially against a shared
  :class:`repro.sim.runner.Runner` and returns an
  :class:`~repro.eval.campaign.ExperimentResult` — what the benches
  and the ``repro figure`` CLI use;
* a declarative :class:`~repro.eval.campaign.ExperimentSpec` in the
  :data:`EXPERIMENTS` registry — a ``jobs()`` builder that expands the
  experiment into a flat (workload, scheme, config-override) cell
  matrix plus a *pure* ``aggregate()`` — what the parallel, resumable
  ``repro campaign`` engine executes.

Both forms share the same cell evaluation and the same aggregation
code, so they produce identical numbers; the drivers are literally
``aggregate(run_cells_serial(runner, jobs(...)))``.

Units throughout: normalised IPC is relative to the calibrated
unprotected baseline (1.0 = no slowdown; Fig. 12's metric), bandwidth
overhead is metadata-bytes / data-bytes (Fig. 14), energy is
normalised energy-per-instruction (Fig. 15), and the detector
breakdowns are fractions of predictions in [0, 1] (Figs. 10/11).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.config import DetectorConfig, SimConfig
from repro.common.types import Scheme
from repro.core.schemes import FIG12_SCHEMES, FIG13_SCHEMES, FIG14_SCHEMES
from repro.eval.campaign import (
    CellRecord,
    ExperimentResult,
    ExperimentSpec,
    JobSpec,
    run_cells_serial,
)
from repro.eval.energy import EnergyModel
from repro.sim.runner import Runner
from repro.workloads.suite import BENCHMARK_NAMES

#: Default workload list for every experiment (the 16 Table VII
#: benchmarks from Rodinia / Parboil / Polybench).
DEFAULT_WORKLOADS = list(BENCHMARK_NAMES)


def _workloads(names: Optional[List[str]]) -> List[str]:
    return names if names is not None else DEFAULT_WORKLOADS


def _run_spec(spec: ExperimentSpec, runner: Runner,
              workloads: Optional[List[str]],
              jobs: Optional[List[JobSpec]] = None) -> ExperimentResult:
    """The old serial path: evaluate the spec's matrix on ``runner``."""
    if jobs is None:
        jobs = spec.jobs(workloads, runner.config, runner.scale)
    return spec.aggregate(run_cells_serial(runner, jobs))


# ---------------------------------------------------------------------------
# Shared matrix builders and aggregators
# ---------------------------------------------------------------------------

def _scheme_matrix(experiment: str, schemes: List[Scheme],
                   workloads: Optional[List[str]], config: SimConfig,
                   scale: float) -> List[JobSpec]:
    """The common (scheme x workload) matrix behind Figs. 12-16."""
    return [
        JobSpec(experiment=experiment, workload=name, scheme=scheme.value,
                series=scheme.value, scale=scale, config=config)
        for scheme in schemes
        for name in _workloads(workloads)
    ]


def _series_aggregate(
    experiment: str, value: Callable[[CellRecord], float]
) -> Callable[[List[CellRecord]], ExperimentResult]:
    """Fold cells into ``series[job.series][job.workload] = value(cell)``."""
    def aggregate(records: List[CellRecord]) -> ExperimentResult:
        result = ExperimentResult(experiment)
        for rec in records:
            result.series.setdefault(rec.job.series, {})[rec.job.workload] = \
                value(rec)
        return result

    return aggregate


def _normalized_ipc(rec: CellRecord) -> float:
    return rec.result.normalized_ipc(rec.baseline)


def _breakdown_aggregate(
    experiment: str, categories: List[str], stats: str
) -> Callable[[List[CellRecord]], ExperimentResult]:
    """Figs. 10/11: per-workload prediction-outcome fractions."""
    def aggregate(records: List[CellRecord]) -> ExperimentResult:
        result = ExperimentResult(experiment)
        for cat in categories:
            result.series[cat] = {}
        for rec in records:
            fractions = getattr(rec.result, stats).as_fractions()
            for cat in categories:
                result.series[cat][rec.job.workload] = fractions[cat]
        return result

    return aggregate


# ---------------------------------------------------------------------------
# Fig. 5 — streaming / read-only access ratios (Section III-A)
# ---------------------------------------------------------------------------

def _fig5_jobs(workloads: Optional[List[str]], config: SimConfig,
               scale: float) -> List[JobSpec]:
    return [
        JobSpec(experiment="fig5", workload=name, kind="profile",
                scheme=Scheme.UNPROTECTED.value, scale=scale, config=config)
        for name in _workloads(workloads)
    ]


def _fig5_aggregate(records: List[CellRecord]) -> ExperimentResult:
    result = ExperimentResult("fig5")
    result.series["streaming"] = {}
    result.series["read_only"] = {}
    for rec in records:
        result.series["streaming"][rec.job.workload] = \
            rec.profile["streaming_ratio"]
        result.series["read_only"][rec.job.workload] = \
            rec.profile["readonly_ratio"]
    return result


def fig5_access_ratios(runner: Runner, workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Fig. 5 (Section III-A): fraction of accesses that hit streaming
    chunks and read-only regions, from the recorded ground-truth
    profile.  Values are fractions of MEE-visible accesses in [0, 1].
    """
    return _run_spec(EXPERIMENTS["fig5"], runner, workloads)


# ---------------------------------------------------------------------------
# Figs. 10 / 11 — detector prediction breakdowns (Section VI-E)
# ---------------------------------------------------------------------------

FIG10_CATEGORIES = ["correct", "mp_init", "mp_aliasing"]
FIG11_CATEGORIES = [
    "correct", "mp_init", "mp_runtime_read_only",
    "mp_runtime_non_read_only", "mp_aliasing",
]


def _shm_run_jobs(experiment: str):
    def build(workloads: Optional[List[str]], config: SimConfig,
              scale: float) -> List[JobSpec]:
        return [
            JobSpec(experiment=experiment, workload=name,
                    scheme=Scheme.SHM.value, series=Scheme.SHM.value,
                    scale=scale, config=config)
            for name in _workloads(workloads)
        ]

    return build


def fig10_readonly_prediction(runner: Runner, workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Fig. 10 (Section VI-E): read-only predictor outcome breakdown
    under SHM — correct predictions vs. initialisation and aliasing
    mispredictions, as fractions of all predictions in [0, 1]."""
    return _run_spec(EXPERIMENTS["fig10"], runner, workloads)


def fig11_streaming_prediction(runner: Runner, workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Fig. 11 (Section VI-E): streaming predictor outcome breakdown
    under SHM, split by the Tables III/IV misprediction scenarios;
    fractions of all predictions in [0, 1]."""
    return _run_spec(EXPERIMENTS["fig11"], runner, workloads)


# ---------------------------------------------------------------------------
# Fig. 12 — overall normalised IPC (Section VI-B)
# ---------------------------------------------------------------------------

def fig12_overall_ipc(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    schemes: Optional[List[Scheme]] = None,
) -> ExperimentResult:
    """Fig. 12 (Section VI-B): IPC of every Table VIII scheme
    normalised to the unprotected baseline (1.0 = no slowdown).  The
    paper's headline staircase: Naive 53.9% overhead down to SHM
    8.09%."""
    jobs = _scheme_matrix("fig12", schemes or FIG12_SCHEMES, workloads,
                          runner.config, runner.scale)
    return _run_spec(EXPERIMENTS["fig12"], runner, workloads, jobs=jobs)


# ---------------------------------------------------------------------------
# Fig. 13 — optimisation breakdown (Section VI-C)
# ---------------------------------------------------------------------------

def fig13_optimization_breakdown(
    runner: Runner, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Fig. 13 (Section VI-C): normalised IPC as SHM's optimisations
    are layered on top of PSSM (read-only only, then dual-granularity
    MACs, then the oracle upper bound).  1.0 = unprotected."""
    return _run_spec(EXPERIMENTS["fig13"], runner, workloads)


# ---------------------------------------------------------------------------
# Fig. 14 — bandwidth overheads (Section VI-D)
# ---------------------------------------------------------------------------

def fig14_bandwidth_overhead(
    runner: Runner, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Fig. 14 (Section VI-D): metadata DRAM traffic (counters, MACs,
    BMT nodes, misprediction refetches) as a fraction of demand data
    bytes — metadata-bytes / data-bytes, unitless."""
    return _run_spec(EXPERIMENTS["fig14"], runner, workloads)


# ---------------------------------------------------------------------------
# Fig. 15 — energy per instruction (Section VI-F)
# ---------------------------------------------------------------------------

FIG15_SCHEMES = [Scheme.NAIVE, Scheme.COMMON_CTR, Scheme.PSSM, Scheme.SHM]


def _fig15_aggregate_with(model: Optional[EnergyModel]):
    def aggregate(records: List[CellRecord]) -> ExperimentResult:
        m = model or EnergyModel()
        result = ExperimentResult("fig15")
        for rec in records:
            result.series.setdefault(rec.job.series, {})[rec.job.workload] = \
                m.normalized_epi(rec.result, rec.baseline)
        return result

    return aggregate


def fig15_energy(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    model: Optional[EnergyModel] = None,
) -> ExperimentResult:
    """Fig. 15 (Section VI-F): energy per instruction normalised to
    the unprotected GPU (1.0 = baseline energy), from the event-count
    model in :mod:`repro.eval.energy`."""
    jobs = _scheme_matrix("fig15", FIG15_SCHEMES, workloads,
                          runner.config, runner.scale)
    return _fig15_aggregate_with(model)(run_cells_serial(runner, jobs))


# ---------------------------------------------------------------------------
# Fig. 16 — L2 as a victim cache (Section VI-G)
# ---------------------------------------------------------------------------

def fig16_victim_cache(
    runner: Runner, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Fig. 16 (Section VI-G, mechanism in Section IV-D): normalised
    IPC of SHM with and without the L2-as-metadata-victim-cache mode.
    Meaningful L2 thrash needs scale >= 1.0."""
    return _run_spec(EXPERIMENTS["fig16"], runner, workloads)


# ---------------------------------------------------------------------------
# Table IX — hardware overhead (Section V-A)
# ---------------------------------------------------------------------------

def table9_hardware_overhead(
    detectors: Optional[DetectorConfig] = None, num_partitions: int = 12
) -> Dict[str, float]:
    """Table IX (Section V-A): on-chip storage of the two detectors —
    pure arithmetic over :class:`DetectorConfig`, no simulation.
    Values are bytes except ``tracker_bits_each`` (bits) and
    ``trackers`` (a count); the paper totals 5,460 B across 12
    partitions.  CLI: ``repro hardware``."""
    cfg = detectors or DetectorConfig()
    per_partition_bits = cfg.partition_storage_bits()
    return {
        "readonly_predictor_bytes": cfg.readonly_entries / 8,
        "streaming_predictor_bytes": cfg.stream_entries / 8,
        "tracker_bits_each": cfg.tracker_storage_bits(),
        "trackers": cfg.num_trackers,
        "per_partition_bytes": per_partition_bits / 8,
        "total_bytes": per_partition_bits / 8 * num_partitions,
    }


# ---------------------------------------------------------------------------
# Ablation — dual-granularity MAC conflict policy (Tables III/IV)
# ---------------------------------------------------------------------------

MAC_CONFLICT_POLICIES = ("recheck", "update_both")


def _mac_conflict_jobs(workloads: Optional[List[str]], config: SimConfig,
                       scale: float) -> List[JobSpec]:
    return [
        JobSpec(experiment="ablation_mac_conflict", workload=name,
                scheme=Scheme.SHM.value, series=policy, scale=scale,
                config=config, overrides={"mac_conflict_policy": policy})
        for policy in MAC_CONFLICT_POLICIES
        for name in _workloads(workloads)
    ]


def ablation_mac_conflict_policy(
    runner: Runner, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Ablation (Tables III/IV remedies): SHM's normalised IPC under
    the two dual-granularity MAC aliasing remedies — ``recheck`` (the
    paper's choice: verify the other MAC on failure) vs
    ``update_both`` (always maintain both granularities)."""
    return _run_spec(EXPERIMENTS["ablation_mac_conflict"], runner, workloads)


# ---------------------------------------------------------------------------
# Ablation — detector sizing (Section V-A, Table IX knob)
# ---------------------------------------------------------------------------

DEFAULT_TRACKER_COUNTS = [2, 8, 32]


def _detector_sizing_jobs(workloads: Optional[List[str]], config: SimConfig,
                          scale: float,
                          tracker_counts: Optional[List[int]] = None,
                          ) -> List[JobSpec]:
    return [
        JobSpec(experiment="ablation_detector_sizing", workload=name,
                scheme=Scheme.SHM.value, series=f"mats_{n}", scale=scale,
                config=config,
                overrides={"detectors": DetectorConfig(num_trackers=n)})
        for n in (tracker_counts or DEFAULT_TRACKER_COUNTS)
        for name in _workloads(workloads)
    ]


def ablation_detector_sizing(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    tracker_counts: Optional[List[int]] = None,
) -> ExperimentResult:
    """Ablation (Section V-A): SHM's normalised IPC as the number of
    memory access trackers (MATs) per partition varies around the
    paper's 8 (Table IX).  Series are labelled ``mats_<n>``."""
    spec = EXPERIMENTS["ablation_detector_sizing"]
    jobs = _detector_sizing_jobs(workloads, runner.config, runner.scale,
                                 tracker_counts)
    return _run_spec(spec, runner, workloads, jobs=jobs)


# ---------------------------------------------------------------------------
# Ablation — bandwidth-utilisation sensitivity (Table VII intensity)
# ---------------------------------------------------------------------------

DEFAULT_UTILIZATIONS = [0.2, 0.5, 0.8, 0.95]
DEFAULT_BANDWIDTH_SCHEMES = [Scheme.NAIVE, Scheme.SHM]


def _bandwidth_jobs(workloads: Optional[List[str]], config: SimConfig,
                    scale: float,
                    utilizations: Optional[List[float]] = None,
                    schemes: Optional[List[Scheme]] = None) -> List[JobSpec]:
    base = workloads[0] if workloads else "kmeans"
    return [
        JobSpec(experiment="ablation_bandwidth_sensitivity",
                workload=f"{base}@{int(100 * util)}", workload_base=base,
                workload_overrides={"bandwidth_utilization": util},
                scheme=scheme.value, series=scheme.value, scale=scale,
                config=config)
        for util in (utilizations or DEFAULT_UTILIZATIONS)
        for scheme in (schemes or DEFAULT_BANDWIDTH_SCHEMES)
    ]


def ablation_bandwidth_sensitivity(
    runner: Runner,
    workload: str = "kmeans",
    utilizations: Optional[List[float]] = None,
    schemes: Optional[List[Scheme]] = None,
) -> ExperimentResult:
    """Sweep one workload's calibrated bandwidth utilisation.

    The paper observes that secure-memory overheads concentrate on
    bandwidth-hungry workloads (atax at 23% barely notices naive
    metadata; fdtd2d at 92% is crushed — Table VII / Section VI-B).
    This ablation isolates that effect: same address stream, different
    intensity.  Workload variants are named ``<base>@<util%>``; values
    are normalised IPC."""
    jobs = _bandwidth_jobs([workload], runner.config, runner.scale,
                           utilizations, schemes)
    return _run_spec(EXPERIMENTS["ablation_bandwidth_sensitivity"], runner,
                     None, jobs=jobs)


# ---------------------------------------------------------------------------
# Ablation — metadata cache (MDC) capacity (Table VI knob)
# ---------------------------------------------------------------------------

DEFAULT_MDC_SIZES = [1024, 2048, 8192]


def _mdc_jobs(workloads: Optional[List[str]], config: SimConfig,
              scale: float, sizes: Optional[List[int]] = None,
              scheme: Scheme = Scheme.PSSM) -> List[JobSpec]:
    from dataclasses import replace

    from repro.common.config import CacheConfig, MDCConfig

    jobs = []
    for size in sizes or DEFAULT_MDC_SIZES:
        mdc = MDCConfig(
            counter=CacheConfig(size_bytes=size),
            mac=CacheConfig(size_bytes=size),
            bmt=CacheConfig(size_bytes=size),
        )
        jobs.extend(
            JobSpec(experiment="ablation_mdc_size", workload=name,
                    scheme=scheme.value, series=f"mdc_{size // 1024}kb",
                    scale=scale, config=replace(config, mdc=mdc))
            for name in _workloads(workloads)
        )
    return jobs


def ablation_mdc_size(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    sizes: Optional[List[int]] = None,
    scheme: Scheme = Scheme.PSSM,
) -> ExperimentResult:
    """Ablation (Table VI knob): normalised IPC as the per-partition
    metadata-cache capacity sweeps around the paper's 2 KB each.
    Every size is its own :class:`SimConfig`, so these cells run on
    sibling runners sharing the parent's calibrations (the unprotected
    calibration never touches the MDC).  Series are ``mdc_<n>kb``."""
    jobs = _mdc_jobs(workloads, runner.config, runner.scale, sizes, scheme)
    return _run_spec(EXPERIMENTS["ablation_mdc_size"], runner, workloads,
                     jobs=jobs)


# ---------------------------------------------------------------------------
# Ablation — DRAM service discipline (repro.memory.sched)
# ---------------------------------------------------------------------------

DEFAULT_DRAM_SCHEDULERS = ["fifo", "critical_first", "banked"]


def _dram_scheduler_jobs(workloads: Optional[List[str]], config: SimConfig,
                         scale: float,
                         schedulers: Optional[List[str]] = None,
                         scheme: Scheme = Scheme.SHM) -> List[JobSpec]:
    from dataclasses import replace

    jobs = []
    for name_s in schedulers or DEFAULT_DRAM_SCHEDULERS:
        gpu = replace(config.gpu, dram_scheduler=name_s)
        jobs.extend(
            JobSpec(experiment="ablation_dram_scheduler", workload=name,
                    scheme=scheme.value, series=name_s, scale=scale,
                    config=replace(config, gpu=gpu))
            for name in _workloads(workloads)
        )
    return jobs


def ablation_dram_scheduler(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    schedulers: Optional[List[str]] = None,
    scheme: Scheme = Scheme.SHM,
) -> ExperimentResult:
    """Ablation (scheduler layer): normalised IPC of one scheme under
    each registered DRAM service discipline — the arrival-order FIFO
    the paper models, the critical-first discipline that defers MAC/BMT
    writes out of the demand path, and the banked open-row model.
    Series are scheduler names; each discipline is its own
    :class:`SimConfig` cell, so sweeps run as ordinary campaign cells.
    ``banked`` cells re-calibrate (their row model changes the
    contention the MLP window is tuned against); ``critical_first``
    cells reuse the FIFO calibration, because the unprotected
    calibration run issues no MAC/BMT write for it to defer (see
    :func:`repro.sim.runner.calibration_key`)."""
    jobs = _dram_scheduler_jobs(workloads, runner.config, runner.scale,
                                schedulers, scheme)
    return _run_spec(EXPERIMENTS["ablation_dram_scheduler"], runner,
                     workloads, jobs=jobs)


# ---------------------------------------------------------------------------
# Ablation — streaming chunk size (Section IV-C, K = 32)
# ---------------------------------------------------------------------------

DEFAULT_CHUNK_SIZES = [2048, 4096, 8192]


def _chunk_jobs(workloads: Optional[List[str]], config: SimConfig,
                scale: float,
                sizes: Optional[List[int]] = None) -> List[JobSpec]:
    return [
        JobSpec(experiment="ablation_chunk_size", workload=name,
                scheme=Scheme.SHM.value, series=f"chunk_{size // 1024}kb",
                scale=scale, config=config,
                overrides={"detectors": DetectorConfig(
                    stream_chunk_size=size,
                    monitor_accesses=size // 128,
                )})
        for size in (sizes or DEFAULT_CHUNK_SIZES)
        for name in _workloads(workloads)
    ]


def ablation_chunk_size(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    sizes: Optional[List[int]] = None,
) -> ExperimentResult:
    """Ablation (Section IV-C): SHM's normalised IPC as the
    dual-granularity chunk size sweeps around the paper's 4 KB with
    K = 32; the MAT window scales with the chunk's block count.
    Series are ``chunk_<n>kb``."""
    jobs = _chunk_jobs(workloads, runner.config, runner.scale, sizes)
    return _run_spec(EXPERIMENTS["ablation_chunk_size"], runner, workloads,
                     jobs=jobs)


# ---------------------------------------------------------------------------
# Multi-tenant traffic experiments (repro.workloads.multitenant)
# ---------------------------------------------------------------------------

DEFAULT_TENANT_COUNTS = [1, 2, 4, 8]
DEFAULT_CHURN_LEVELS = [0.0, 0.25, 0.5, 1.0]
MULTITENANT_SCHEMES = [Scheme.PSSM, Scheme.SHM]


def _multitenant_jobs(workloads: Optional[List[str]], config: SimConfig,
                      scale: float,
                      tenant_counts: Optional[List[int]] = None,
                      ) -> List[JobSpec]:
    from repro.workloads.multitenant import contention_spec

    specs = [contention_spec(n) for n in
             (tenant_counts or DEFAULT_TENANT_COUNTS)]
    return [
        JobSpec(experiment="ablation_multitenant_contention",
                workload=spec["name"], scheme=scheme.value,
                series=scheme.value, scale=scale, config=config,
                workload_spec=spec)
        for scheme in MULTITENANT_SCHEMES
        for spec in specs
    ]


def ablation_multitenant_contention(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    tenant_counts: Optional[List[int]] = None,
) -> ExperimentResult:
    """Multi-tenant contention sweep: normalised IPC of PSSM vs SHM as
    the number of concurrent tenant streams grows (1, 2, 4, 8 by
    default).  Each cell is a composed multi-tenant suite
    (:func:`repro.workloads.multitenant.contention_spec`) — N isolated
    address slabs whose Poisson-interleaved bursts shred spatial
    locality and thrash the per-partition metadata caches, the
    scenario where the paper's per-region scheme selection (streaming
    + read-only detection) must hold its advantage.  ``workloads`` is
    ignored: the workload axis *is* the tenant count (``mt1`` ..
    ``mt8``); series are scheme names."""
    jobs = _multitenant_jobs(workloads, runner.config, runner.scale,
                             tenant_counts)
    return _run_spec(EXPERIMENTS["ablation_multitenant_contention"],
                     runner, workloads, jobs=jobs)


def _phase_churn_jobs(workloads: Optional[List[str]], config: SimConfig,
                      scale: float,
                      churn_levels: Optional[List[float]] = None,
                      ) -> List[JobSpec]:
    from repro.workloads.multitenant import phase_churn_spec

    specs = [phase_churn_spec(churn) for churn in
             (churn_levels or DEFAULT_CHURN_LEVELS)]
    return [
        JobSpec(experiment="suite_phase_churn",
                workload=spec["name"], scheme=scheme.value,
                series=scheme.value, scale=scale, config=config,
                workload_spec=spec)
        for scheme in MULTITENANT_SCHEMES
        for spec in specs
    ]


def suite_phase_churn(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    churn_levels: Optional[List[float]] = None,
) -> ExperimentResult:
    """Phase-churn sweep: normalised IPC of PSSM vs SHM as tenants
    re-roll their access patterns at epoch boundaries with increasing
    probability (0 %, 25 %, 50 %, 100 % by default).  Churn invalidates
    the detectors' learned region classifications mid-run — a region
    that was streaming becomes random-access — so this measures how
    quickly the adaptive schemes re-converge versus paying mispredicted
    metadata traffic.  ``workloads`` is ignored: the workload axis is
    the churn level (``mt4_churn0`` .. ``mt4_churn100``); series are
    scheme names."""
    jobs = _phase_churn_jobs(workloads, runner.config, runner.scale,
                             churn_levels)
    return _run_spec(EXPERIMENTS["suite_phase_churn"], runner, workloads,
                     jobs=jobs)


# ---------------------------------------------------------------------------
# Ablation — learned adaptive policies (repro.core.policies.learned)
# ---------------------------------------------------------------------------

#: Learned designs and the paper heuristics they are judged against.
LEARNED_SCHEMES = ["pssm", "shm", "pssm_learned", "shm_bandit"]

#: Tenant count of the contention cell the learned ablation includes.
LEARNED_CONTENTION_TENANTS = 4


def _learned_jobs(workloads: Optional[List[str]], config: SimConfig,
                  scale: float,
                  churn_levels: Optional[List[float]] = None,
                  ) -> List[JobSpec]:
    from repro.workloads.multitenant import contention_spec, phase_churn_spec

    specs = [phase_churn_spec(churn) for churn in
             (churn_levels or DEFAULT_CHURN_LEVELS)]
    specs.append(contention_spec(LEARNED_CONTENTION_TENANTS))
    jobs = []
    for scheme in LEARNED_SCHEMES:
        jobs.extend(
            JobSpec(experiment="ablation_learned_policies", workload=name,
                    scheme=scheme, series=scheme, scale=scale,
                    config=config, collect_decisions=True)
            for name in _workloads(workloads)
        )
        jobs.extend(
            JobSpec(experiment="ablation_learned_policies",
                    workload=spec["name"], scheme=scheme, series=scheme,
                    scale=scale, config=config, workload_spec=spec,
                    collect_decisions=True)
            for spec in specs
        )
    return jobs


def _learned_aggregate(records: List[CellRecord]) -> ExperimentResult:
    """Normalised IPC per scheme, plus a ``<scheme>:cost`` series with
    the total charged decision stall (the sum over detector families
    of the ledger summary's ``stall_cycles``) — the quantity the
    learned policies optimise.  Cells that came back without a
    decisions payload (e.g. store-cached cells another experiment ran
    without ``collect_decisions``) contribute IPC only."""
    result = ExperimentResult("ablation_learned_policies")
    for rec in records:
        result.series.setdefault(rec.job.series, {})[rec.job.workload] = \
            _normalized_ipc(rec)
        if rec.decisions:
            stall = sum(block["stall_cycles"]
                        for block in rec.decisions["by_detector"].values())
            result.series.setdefault(f"{rec.job.series}:cost", {})[
                rec.job.workload] = round(stall, 6)
    return result


def ablation_learned_policies(
    runner: Runner,
    workloads: Optional[List[str]] = None,
    churn_levels: Optional[List[float]] = None,
) -> ExperimentResult:
    """Learned vs. paper-heuristic adaptive policies
    (:mod:`repro.core.policies.learned`): normalised IPC and total
    charged decision cost of ``pssm_learned`` (online-logit detectors)
    and ``shm_bandit`` (per-region arm selection) against PSSM and SHM
    — over the standard suite (where the learned designs must stay
    within noise of the heuristics), the phase-churn sweep and a
    4-tenant contention cell (where they must win back misprediction
    cost).  Every cell runs with a decision ledger attached; series
    ``<scheme>`` holds normalised IPC and ``<scheme>:cost`` the total
    charged stall cycles."""
    jobs = _learned_jobs(workloads, runner.config, runner.scale,
                         churn_levels)
    return _run_spec(EXPERIMENTS["ablation_learned_policies"], runner,
                     workloads, jobs=jobs)


# ---------------------------------------------------------------------------
# The registry the campaign engine executes
# ---------------------------------------------------------------------------

#: Every sweep-backed experiment, declaratively: ``repro campaign
#: <name>`` executes ``jobs()`` on the worker pool and folds completed
#: cells through ``aggregate()``.  Table IX is the one entry point not
#: listed here — it is pure arithmetic (``repro hardware``).
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec for spec in [
        ExperimentSpec(
            name="fig5",
            title="Fig. 5: streaming / read-only access ratios",
            provenance="Fig. 5, Section III-A",
            jobs=_fig5_jobs,
            aggregate=_fig5_aggregate,
        ),
        ExperimentSpec(
            name="fig10",
            title="Fig. 10: read-only prediction breakdown",
            provenance="Fig. 10, Section VI-E",
            jobs=_shm_run_jobs("fig10"),
            aggregate=_breakdown_aggregate("fig10", FIG10_CATEGORIES,
                                           "readonly_stats"),
        ),
        ExperimentSpec(
            name="fig11",
            title="Fig. 11: streaming prediction breakdown",
            provenance="Fig. 11, Section VI-E",
            jobs=_shm_run_jobs("fig11"),
            aggregate=_breakdown_aggregate("fig11", FIG11_CATEGORIES,
                                           "streaming_stats"),
        ),
        ExperimentSpec(
            name="fig12",
            title="Fig. 12: performance overheads (all Table VIII schemes)",
            provenance="Fig. 12, Section VI-B",
            jobs=lambda w, c, s: _scheme_matrix("fig12", FIG12_SCHEMES,
                                                w, c, s),
            aggregate=_series_aggregate("fig12", _normalized_ipc),
        ),
        ExperimentSpec(
            name="fig13",
            title="Fig. 13: optimisation breakdown",
            provenance="Fig. 13, Section VI-C",
            jobs=lambda w, c, s: _scheme_matrix("fig13", FIG13_SCHEMES,
                                                w, c, s),
            aggregate=_series_aggregate("fig13", _normalized_ipc),
        ),
        ExperimentSpec(
            name="fig14",
            title="Fig. 14: metadata bandwidth overhead",
            provenance="Fig. 14, Section VI-D",
            jobs=lambda w, c, s: _scheme_matrix("fig14", FIG14_SCHEMES,
                                                w, c, s),
            aggregate=_series_aggregate(
                "fig14", lambda rec: rec.result.bandwidth_overhead),
        ),
        ExperimentSpec(
            name="fig15",
            title="Fig. 15: normalised energy per instruction",
            provenance="Fig. 15, Section VI-F",
            jobs=lambda w, c, s: _scheme_matrix("fig15", FIG15_SCHEMES,
                                                w, c, s),
            aggregate=_fig15_aggregate_with(None),
        ),
        ExperimentSpec(
            name="fig16",
            title="Fig. 16: L2 as a metadata victim cache",
            provenance="Fig. 16, Sections IV-D and VI-G",
            jobs=lambda w, c, s: _scheme_matrix(
                "fig16", [Scheme.SHM, Scheme.SHM_VL2], w, c, s),
            aggregate=_series_aggregate("fig16", _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_mac_conflict",
            title="Ablation: dual-granularity MAC conflict policy",
            provenance="Tables III/IV remedies, Section IV-C",
            jobs=_mac_conflict_jobs,
            aggregate=_series_aggregate("ablation_mac_conflict",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_detector_sizing",
            title="Ablation: memory-access-tracker count",
            provenance="Table IX knob, Section V-A",
            jobs=_detector_sizing_jobs,
            aggregate=_series_aggregate("ablation_detector_sizing",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_bandwidth_sensitivity",
            title="Ablation: bandwidth-utilisation sensitivity",
            provenance="Table VII intensities, Section VI-B",
            jobs=_bandwidth_jobs,
            aggregate=_series_aggregate("ablation_bandwidth_sensitivity",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_mdc_size",
            title="Ablation: metadata-cache capacity",
            provenance="Table VI knob, Section IV-A",
            jobs=_mdc_jobs,
            aggregate=_series_aggregate("ablation_mdc_size",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_dram_scheduler",
            title="Ablation: DRAM service discipline",
            provenance="Scheduler layer (repro.memory.sched)",
            jobs=_dram_scheduler_jobs,
            aggregate=_series_aggregate("ablation_dram_scheduler",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_chunk_size",
            title="Ablation: streaming chunk size",
            provenance="Section IV-C (4 KB chunks, K = 32)",
            jobs=_chunk_jobs,
            aggregate=_series_aggregate("ablation_chunk_size",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_multitenant_contention",
            title="Multi-tenant metadata contention (1-8 tenants)",
            provenance="Extension: Section VI detectors under "
                       "multi-tenant traffic",
            jobs=_multitenant_jobs,
            aggregate=_series_aggregate("ablation_multitenant_contention",
                                        _normalized_ipc),
        ),
        ExperimentSpec(
            name="ablation_learned_policies",
            title="Ablation: learned vs. heuristic adaptive policies",
            provenance="Extension: ledger-trained detectors and "
                       "per-region scheme selection",
            jobs=_learned_jobs,
            aggregate=_learned_aggregate,
        ),
        ExperimentSpec(
            name="suite_phase_churn",
            title="Phase churn: detector re-convergence under "
                  "pattern flips",
            provenance="Extension: Section IV detectors under "
                       "phase churn",
            jobs=_phase_churn_jobs,
            aggregate=_series_aggregate("suite_phase_churn",
                                        _normalized_ipc),
        ),
    ]
}
