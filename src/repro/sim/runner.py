"""Experiment orchestration: calibration, profiling, cached runs.

For each workload the runner performs, once:

1. a *recording* run (unprotected scheme) that captures the MEE-visible
   stream and the unprotected data traffic;
2. *calibration*: the frontend issue gap is set so the unprotected run
   hits the workload's published bandwidth utilisation (Table VII);
3. a *baseline* run at the calibrated gap (the Fig. 12 normaliser);
4. *profiling*: the recorded stream becomes the ground truth
   (:class:`repro.sim.profiling.TraceProfile`) for detector-accuracy
   stats and the SHM_upper_bound oracle.

Scheme runs are cached by (workload, scheme) so that every figure's
bench reuses, rather than re-simulates, shared configurations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.policies.registry import scheme_entry
from repro.memory.l2 import ResolvedL2, resolve_l2
from repro.memory.sched import demand_data_gpu
from repro.obs.decisions import NULL_LEDGER
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sim.gpu import GPUSimulator
from repro.sim.profiling import TraceProfile
from repro.sim.stats import RunResult
from repro.workloads.base import Workload
from repro.workloads.suite import build as build_workload

#: Compute floor between issued accesses (cycles); the suite is memory
#: bound, so pacing comes from the calibrated MLP window instead.
GAP_EPSILON = 0.001

#: Bounds and starting point of the MLP calibration search.
MIN_WINDOW = 16
MAX_WINDOW = 32768
INITIAL_WINDOW = 512
CALIBRATION_ROUNDS = 4
CALIBRATION_TOLERANCE = 0.06


@dataclass
class Calibration:
    """Per-workload calibration artefacts: the calibrated window, the
    ground-truth profile, the baseline run, and the workload's resolved
    L2 outcomes (:func:`~repro.memory.l2.resolve_l2`), which every
    calibration round and every scheme run that parks no metadata in
    the L2 replays."""

    window: int
    profile: TraceProfile
    baseline: RunResult
    resolved: ResolvedL2


def calibration_key(config: SimConfig) -> tuple:
    """Everything a workload's calibration reads from ``config``.

    The calibration runs the unprotected scheme, which moves demand
    data only, so it exercises the GPU model :func:`demand_data_gpu`
    gives; its ground-truth profile is chunked by the detectors'
    region and chunk sizes.  Nothing else (MDC sizes, scheme overrides,
    detector capacities) reaches it, so at equal scale runners whose
    configs have equal keys calibrate every workload identically and
    may share their calibrations.  :meth:`Runner._calibrate` records
    from this key alone, which keeps the two in step.  The GPU model
    holds the L2 geometry, so the resolved L2 outcomes a calibration
    carries hold for every run of a runner with an equal key.
    """
    detectors = config.scheme.detectors
    return (demand_data_gpu(config.gpu), detectors.readonly_region_size,
            detectors.stream_chunk_size)


class Runner:
    """Runs (workload x scheme) simulations with caching."""

    def __init__(self, config: Optional[SimConfig] = None, scale: float = 1.0,
                 observer: Optional[Observer] = None,
                 ledger=None) -> None:
        self.config = config or SimConfig()
        self.scale = scale
        self.observer = observer if observer is not None else NULL_OBSERVER
        #: Decision ledger threaded into scheme runs.  A plain settable
        #: attribute (read per run()) so campaign cells can attach a
        #: fresh ledger per cell and restore NULL_LEDGER after.
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self._workloads: Dict[str, Workload] = {}
        self._calibrations: Dict[str, Calibration] = {}
        # Keyed by (workload, scheme-registry name).
        self._results: Dict[Tuple[str, str], RunResult] = {}

    # ------------------------------------------------------------------

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = build_workload(name, self.scale)
        return self._workloads[name]

    def add_workload(self, workload: Workload) -> None:
        """Register a custom (non-suite) workload."""
        self._workloads[workload.name] = workload

    def calibration(self, name: str) -> Calibration:
        if name not in self._calibrations:
            self._calibrations[name] = self._calibrate(self.workload(name))
        return self._calibrations[name]

    def profile(self, name: str) -> TraceProfile:
        return self.calibration(name).profile

    def baseline(self, name: str) -> RunResult:
        """The calibrated unprotected run (a defensive copy: callers
        may mutate their result without corrupting the cache)."""
        return copy.deepcopy(self.calibration(name).baseline)

    def run(self, name: str, scheme, **overrides) -> RunResult:
        """Simulate one scheme on one workload (cached when no
        overrides are given and no observer is attached).

        ``scheme`` is a :class:`Scheme` member or a scheme-registry
        name (including custom compositions registered via
        :func:`repro.core.policies.register_scheme`).

        Every return is a defensive deep copy of the cached entry, so
        one figure's post-processing cannot corrupt another figure's
        cached (workload, scheme) result.
        """
        entry = scheme_entry(scheme)
        cacheable = (not overrides and not self.observer.enabled
                     and not self.ledger.enabled)
        key = (name, entry.name)
        if cacheable and key in self._results:
            return copy.deepcopy(self._results[key])
        if cacheable and entry.name == Scheme.UNPROTECTED.value:
            return self.baseline(name)
        result = self.simulate(name, entry.name, **overrides)
        if cacheable:
            self._results[key] = copy.deepcopy(result)
        return result

    def simulate(self, name: str, scheme, **overrides) -> RunResult:
        """Simulate one scheme on one workload at its calibrated
        window, bypassing the result cache — an ``unprotected`` run is
        re-simulated, not served from the calibration baseline."""
        entry = scheme_entry(scheme)
        calib = self.calibration(name)
        config = self.config.with_scheme(entry.name, **overrides)
        if self.ledger.enabled:
            self.ledger.begin_run(f"{name}/{entry.name}")
        sim = GPUSimulator(config, truth=calib.profile,
                           observer=self.observer,
                           ledger=self.ledger)
        return sim.run(self.workload(name), gap=GAP_EPSILON,
                       max_inflight=calib.window, resolved=calib.resolved)

    def normalized_ipc(self, name: str, scheme: Scheme) -> float:
        return self.run(name, scheme).normalized_ipc(self.baseline(name))

    def overhead(self, name: str, scheme: Scheme) -> float:
        return self.run(name, scheme).overhead(self.baseline(name))

    # ------------------------------------------------------------------

    def _calibrate(self, workload: Workload) -> Calibration:
        """Find the MLP window at which the unprotected run hits the
        workload's published bandwidth utilisation (Table VII).

        Below saturation utilisation grows ~linearly with the window
        (Little's law), so a proportional update converges in a few
        rounds.  The final round records the MEE-visible stream for
        the ground-truth profile and doubles as the baseline run.

        The runs use only what :func:`calibration_key` holds: its GPU
        model under the unprotected scheme, and its detector geometry
        for the profile.  The workload's L2 outcomes are resolved once,
        first, and every round replays them.
        """
        target = workload.bandwidth_utilization
        gpu, region_size, chunk_size = calibration_key(self.config)
        recording_config = SimConfig(gpu=gpu).with_scheme(Scheme.UNPROTECTED)
        resolved = resolve_l2(workload, gpu)

        observe = self.observer.enabled
        window = INITIAL_WINDOW
        # Every round records the stream, so a search that settles on
        # the window it just simulated reuses that round as the baseline.
        for round_idx in range(CALIBRATION_ROUNDS):
            recorder = GPUSimulator(recording_config, record_stream=True)
            baseline = recorder.run(workload, gap=GAP_EPSILON,
                                    max_inflight=window, resolved=resolved)
            measured = baseline.dram_utilization
            if observe:
                self.observer.calibration_round(
                    workload.name, round_idx, window, measured,
                    baseline.cycles
                )
            if measured <= 0:
                break
            error = abs(measured - target) / target
            if error <= CALIBRATION_TOLERANCE:
                break
            scaled = int(window * target / measured)
            scaled = max(MIN_WINDOW, min(MAX_WINDOW, scaled))
            if scaled == window:
                break
            window = scaled
        else:
            # The rounds ran out on a window no round has simulated.
            recorder = GPUSimulator(recording_config, record_stream=True)
            baseline = recorder.run(workload, gap=GAP_EPSILON,
                                    max_inflight=window, resolved=resolved)
        if observe:
            self.observer.calibration_round(
                workload.name, CALIBRATION_ROUNDS, window,
                baseline.dram_utilization, baseline.cycles
            )
        profile = TraceProfile(
            region_size=region_size, chunk_size=chunk_size,
        ).ingest(recorder.streams)
        return Calibration(window=window, profile=profile, baseline=baseline,
                           resolved=resolved)
