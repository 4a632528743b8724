"""The paper's evaluation and the repo's ablations, declared as job
matrices.

Every experiment is one :class:`~repro.eval.campaign.ExperimentSpec`
in the :data:`EXPERIMENTS` registry, its only definition: a
``jobs(workloads, config, scale)`` builder that expands it into a flat
(workload, scheme, config-override) cell matrix, and a *pure*
``aggregate()`` that folds the finished cells into an
:class:`~repro.eval.campaign.ExperimentResult`.  A spec runs two ways,
with identical numbers:

* serially, :func:`run_experiment` (``repro figure``, the benches):
  the matrix on one shared :class:`repro.sim.runner.Runner`;
* through :func:`repro.eval.campaign.run_campaign` (``repro
  campaign``, and ``repro reproduce`` as one serial campaign):
  deduplicated across experiments, on a worker pool or in-process,
  resumable from the result store.

Units throughout: normalised IPC is relative to the calibrated
unprotected baseline (1.0 = no slowdown; Fig. 12's metric), bandwidth
overhead is metadata-bytes / data-bytes (Fig. 14), energy is
normalised energy-per-instruction (Fig. 15), and the detector
breakdowns are fractions of predictions in [0, 1] (Figs. 10/11).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.common.config import CacheConfig, DetectorConfig, MDCConfig, SimConfig
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


# ---------------------------------------------------------------------------
# Shared matrix builders and aggregators
# ---------------------------------------------------------------------------

def _scheme_jobs(
    experiment: str, schemes: List[Scheme]
) -> Callable[[Optional[List[str]], SimConfig, float], List[JobSpec]]:
    """The common (scheme x workload) matrix behind Figs. 10-16."""
    def build(workloads: Optional[List[str]], config: SimConfig,
              scale: float) -> List[JobSpec]:
        return [
            JobSpec(experiment=experiment, workload=name,
                    scheme=scheme.value, series=scheme.value, scale=scale,
                    config=config)
            for scheme in schemes
            for name in _workloads(workloads)
        ]

    return build


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


def _normalized_epi(rec: CellRecord) -> float:
    return EnergyModel().normalized_epi(rec.result, rec.baseline)


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


# ---------------------------------------------------------------------------
# Figs. 10 / 11 — detector prediction breakdowns (Section VI-E)
# ---------------------------------------------------------------------------

FIG10_CATEGORIES = ["correct", "mp_init", "mp_aliasing"]
FIG11_CATEGORIES = [
    "correct", "mp_init", "mp_runtime_read_only",
    "mp_runtime_non_read_only", "mp_aliasing",
]


# ---------------------------------------------------------------------------
# Fig. 15 — energy per instruction (Section VI-F)
# ---------------------------------------------------------------------------

FIG15_SCHEMES = [Scheme.NAIVE, Scheme.COMMON_CTR, Scheme.PSSM, Scheme.SHM]


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


# ---------------------------------------------------------------------------
# Ablation — detector sizing (Section V-A, Table IX knob)
# ---------------------------------------------------------------------------

DEFAULT_TRACKER_COUNTS = [2, 8, 32]


def _detector_sizing_jobs(workloads: Optional[List[str]], config: SimConfig,
                          scale: float) -> List[JobSpec]:
    return [
        JobSpec(experiment="ablation_detector_sizing", workload=name,
                scheme=Scheme.SHM.value, series=f"mats_{n}", scale=scale,
                config=config,
                overrides={"detectors": DetectorConfig(num_trackers=n)})
        for n in DEFAULT_TRACKER_COUNTS
        for name in _workloads(workloads)
    ]


# ---------------------------------------------------------------------------
# Ablation — bandwidth-utilisation sensitivity (Table VII intensity)
# ---------------------------------------------------------------------------

DEFAULT_UTILIZATIONS = [0.2, 0.5, 0.8, 0.95]
DEFAULT_BANDWIDTH_SCHEMES = [Scheme.NAIVE, Scheme.SHM]


def _bandwidth_jobs(workloads: Optional[List[str]], config: SimConfig,
                    scale: float) -> List[JobSpec]:
    """Each base workload (every name in ``workloads``, else kmeans)
    re-built at each utilisation as the variant ``<base>@<util%>``."""
    return [
        JobSpec(experiment="ablation_bandwidth_sensitivity",
                workload=f"{base}@{int(100 * util)}", workload_base=base,
                workload_overrides={"bandwidth_utilization": util},
                scheme=scheme.value, series=scheme.value, scale=scale,
                config=config)
        for base in workloads or ["kmeans"]
        for util in DEFAULT_UTILIZATIONS
        for scheme in DEFAULT_BANDWIDTH_SCHEMES
    ]


# ---------------------------------------------------------------------------
# Ablation — metadata cache (MDC) capacity (Table VI knob)
# ---------------------------------------------------------------------------

DEFAULT_MDC_SIZES = [1024, 2048, 8192]


def _mdc_jobs(workloads: Optional[List[str]], config: SimConfig,
              scale: float) -> List[JobSpec]:
    jobs = []
    for size in DEFAULT_MDC_SIZES:
        mdc = MDCConfig(
            counter=CacheConfig(size_bytes=size),
            mac=CacheConfig(size_bytes=size),
            bmt=CacheConfig(size_bytes=size),
        )
        jobs.extend(
            JobSpec(experiment="ablation_mdc_size", workload=name,
                    scheme=Scheme.PSSM.value,
                    series=f"mdc_{size // 1024}kb", scale=scale,
                    config=replace(config, mdc=mdc))
            for name in _workloads(workloads)
        )
    return jobs


# ---------------------------------------------------------------------------
# Ablation — DRAM service discipline (repro.memory.sched)
# ---------------------------------------------------------------------------

DEFAULT_DRAM_SCHEDULERS = ["fifo", "critical_first", "banked"]


def _dram_scheduler_jobs(workloads: Optional[List[str]], config: SimConfig,
                         scale: float) -> List[JobSpec]:
    """SHM under each discipline, each its own :class:`SimConfig` cell.

    ``banked`` cells re-calibrate (their row model changes the
    contention the MLP window is tuned against); ``critical_first``
    cells reuse the FIFO calibration, because the unprotected
    calibration run issues no MAC/BMT write for it to defer (see
    :func:`repro.sim.runner.calibration_key`)."""
    jobs = []
    for scheduler in DEFAULT_DRAM_SCHEDULERS:
        gpu = replace(config.gpu, dram_scheduler=scheduler)
        jobs.extend(
            JobSpec(experiment="ablation_dram_scheduler", workload=name,
                    scheme=Scheme.SHM.value, series=scheduler, scale=scale,
                    config=replace(config, gpu=gpu))
            for name in _workloads(workloads)
        )
    return jobs


# ---------------------------------------------------------------------------
# Ablation — streaming chunk size (Section IV-C, K = 32)
# ---------------------------------------------------------------------------

DEFAULT_CHUNK_SIZES = [2048, 4096, 8192]


def _chunk_jobs(workloads: Optional[List[str]], config: SimConfig,
                scale: float) -> List[JobSpec]:
    """SHM at each chunk size; the MAT window scales with the chunk's
    block count.  The geometry goes into each cell's config as well as
    its scheme overrides: the overrides size the simulated detectors,
    and the config's detectors chunk the ground-truth profile the
    cell's predictions are scored against (they are part of
    :func:`repro.sim.runner.calibration_key`)."""
    jobs = []
    for size in DEFAULT_CHUNK_SIZES:
        detectors = DetectorConfig(stream_chunk_size=size,
                                   monitor_accesses=size // 128)
        cell_config = replace(
            config, scheme=replace(config.scheme, detectors=detectors))
        jobs.extend(
            JobSpec(experiment="ablation_chunk_size", workload=name,
                    scheme=Scheme.SHM.value,
                    series=f"chunk_{size // 1024}kb", scale=scale,
                    config=cell_config, overrides={"detectors": detectors})
            for name in _workloads(workloads)
        )
    return jobs


# ---------------------------------------------------------------------------
# Multi-tenant traffic experiments (repro.workloads.multitenant)
# ---------------------------------------------------------------------------

DEFAULT_TENANT_COUNTS = [1, 2, 4, 8]
DEFAULT_CHURN_LEVELS = [0.0, 0.25, 0.5, 1.0]
MULTITENANT_SCHEMES = [Scheme.PSSM, Scheme.SHM]


def _composed_jobs(experiment: str, specs: List[dict], config: SimConfig,
                   scale: float) -> List[JobSpec]:
    """PSSM and SHM over composed suites; the workload axis is the
    suite list, so the experiment ignores ``workloads``."""
    return [
        JobSpec(experiment=experiment, workload=spec["name"],
                scheme=scheme.value, series=scheme.value, scale=scale,
                config=config, workload_spec=spec)
        for scheme in MULTITENANT_SCHEMES
        for spec in specs
    ]


def _multitenant_jobs(workloads: Optional[List[str]], config: SimConfig,
                      scale: float) -> List[JobSpec]:
    """N isolated tenant slabs (``mt1`` .. ``mt8``) whose interleaved
    bursts shred spatial locality and thrash the metadata caches."""
    from repro.workloads.multitenant import contention_spec

    specs = [contention_spec(n) for n in DEFAULT_TENANT_COUNTS]
    return _composed_jobs("ablation_multitenant_contention", specs, config,
                          scale)


def _phase_churn_jobs(workloads: Optional[List[str]], config: SimConfig,
                      scale: float) -> List[JobSpec]:
    """Four tenants re-rolling their access patterns at epoch
    boundaries with each churn probability (``mt4_churn0`` ..
    ``mt4_churn100``)."""
    from repro.workloads.multitenant import phase_churn_spec

    specs = [phase_churn_spec(churn) for churn in DEFAULT_CHURN_LEVELS]
    return _composed_jobs("suite_phase_churn", specs, config, scale)


# ---------------------------------------------------------------------------
# Ablation — learned adaptive policies (repro.core.policies.learned)
# ---------------------------------------------------------------------------

#: Learned designs and the paper heuristics they are judged against.
LEARNED_SCHEMES = ["pssm", "shm", "pssm_learned", "shm_bandit"]

#: Tenant count of the contention cell the learned ablation includes.
LEARNED_CONTENTION_TENANTS = 4


def _learned_jobs(workloads: Optional[List[str]], config: SimConfig,
                  scale: float) -> List[JobSpec]:
    from repro.workloads.multitenant import contention_spec, phase_churn_spec

    specs = [phase_churn_spec(churn) for churn in DEFAULT_CHURN_LEVELS]
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


# ---------------------------------------------------------------------------
# The registry, and its serial entry point
# ---------------------------------------------------------------------------

#: Every sweep-backed experiment, declaratively: :func:`run_experiment`
#: and ``repro campaign <name>`` execute ``jobs()`` and fold the
#: completed cells through ``aggregate()``.  Table IX is the one entry
#: point not listed here — it is pure arithmetic (``repro hardware``).
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
            jobs=_scheme_jobs("fig10", [Scheme.SHM]),
            aggregate=_breakdown_aggregate("fig10", FIG10_CATEGORIES,
                                           "readonly_stats"),
        ),
        ExperimentSpec(
            name="fig11",
            title="Fig. 11: streaming prediction breakdown",
            provenance="Fig. 11, Section VI-E",
            jobs=_scheme_jobs("fig11", [Scheme.SHM]),
            aggregate=_breakdown_aggregate("fig11", FIG11_CATEGORIES,
                                           "streaming_stats"),
        ),
        ExperimentSpec(
            name="fig12",
            title="Fig. 12: performance overheads (all Table VIII schemes)",
            provenance="Fig. 12, Section VI-B",
            jobs=_scheme_jobs("fig12", FIG12_SCHEMES),
            aggregate=_series_aggregate("fig12", _normalized_ipc),
        ),
        ExperimentSpec(
            name="fig13",
            title="Fig. 13: optimisation breakdown",
            provenance="Fig. 13, Section VI-C",
            jobs=_scheme_jobs("fig13", FIG13_SCHEMES),
            aggregate=_series_aggregate("fig13", _normalized_ipc),
        ),
        ExperimentSpec(
            name="fig14",
            title="Fig. 14: metadata bandwidth overhead",
            provenance="Fig. 14, Section VI-D",
            jobs=_scheme_jobs("fig14", FIG14_SCHEMES),
            aggregate=_series_aggregate(
                "fig14", lambda rec: rec.result.bandwidth_overhead),
        ),
        ExperimentSpec(
            name="fig15",
            title="Fig. 15: normalised energy per instruction",
            provenance="Fig. 15, Section VI-F",
            jobs=_scheme_jobs("fig15", FIG15_SCHEMES),
            aggregate=_series_aggregate("fig15", _normalized_epi),
        ),
        ExperimentSpec(
            name="fig16",
            title="Fig. 16: L2 as a metadata victim cache",
            provenance="Fig. 16, Sections IV-D and VI-G",
            jobs=_scheme_jobs("fig16", [Scheme.SHM, Scheme.SHM_VL2]),
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


def run_experiment(name: str, runner: Runner,
                   workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Evaluate the registered experiment ``name`` serially on
    ``runner``, at its config and scale (``workloads=None`` is the
    experiment's default set)."""
    spec = EXPERIMENTS[name]
    return spec.aggregate(run_cells_serial(
        runner, spec.jobs(workloads, runner.config, runner.scale)))
