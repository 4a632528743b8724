"""Simulation engine: issue window, GPU model, profiling, runner, stats."""

from repro.sim.checker import FunctionalReplay
from repro.sim.events import CompletionWindow
from repro.sim.gpu import GPUSimulator, L2_HIT_LATENCY
from repro.sim.parallel import JobOutcome, execute_jobs
from repro.sim.profiling import TraceProfile
from repro.sim.runner import Calibration, Runner
from repro.sim.stats import L2Stats, RunResult, geomean, mean

__all__ = [
    "FunctionalReplay",
    "CompletionWindow",
    "GPUSimulator",
    "L2_HIT_LATENCY",
    "JobOutcome",
    "execute_jobs",
    "TraceProfile",
    "Calibration",
    "Runner",
    "L2Stats",
    "RunResult",
    "geomean",
    "mean",
]
