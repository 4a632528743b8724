"""Evaluation harness: the experiment registry, the campaign engine,
energy model and reporting."""

from repro.eval.campaign import (
    CampaignReport,
    CellRecord,
    ExperimentSpec,
    JobSpec,
    cell_key,
    run_campaign,
    run_cells_serial,
    run_smoke,
)
from repro.eval.energy import EnergyModel
from repro.eval.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
    table9_hardware_overhead,
)
from repro.eval.plotting import breakdown_bars, grouped_bars, hbar
from repro.eval.reporting import format_overheads, format_table, summarize_averages
from repro.eval.security_analysis import (
    MACDesignPoint,
    mac_design_space,
    truncation_analysis,
)

from repro.eval.results_io import (
    ResultStore,
    deserialize_run_result,
    serialize_run_result,
)

__all__ = [
    "CampaignReport",
    "CellRecord",
    "EXPERIMENTS",
    "ExperimentSpec",
    "JobSpec",
    "ResultStore",
    "cell_key",
    "deserialize_run_result",
    "run_campaign",
    "run_cells_serial",
    "run_smoke",
    "serialize_run_result",
    "EnergyModel",
    "ExperimentResult",
    "run_experiment",
    "table9_hardware_overhead",
    "breakdown_bars",
    "grouped_bars",
    "hbar",
    "format_overheads",
    "format_table",
    "summarize_averages",
    "MACDesignPoint",
    "mac_design_space",
    "truncation_analysis",
]
