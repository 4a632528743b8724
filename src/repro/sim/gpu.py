"""The top-level GPU simulator (the assembly layer).

Trace-driven and cycle-approximate: an SM frontend with bounded
memory-level parallelism issues a workload's access trace into the
:class:`~repro.sim.pipeline.MemoryPipeline` — partitioned L2, per-
partition MEE (which generates security-metadata traffic per the
active scheme) and a bandwidth-limited GDDR channel behind a pluggable
scheduler.  Execution time emerges from the interplay of issue rate,
queueing and decrypt-critical counter fetches — the same contention
mechanism the paper measures on GPGPU-Sim.

This module only *wires* the pipeline (construct components per
``SimConfig``, sequence kernels and host events) and assembles the
:class:`~repro.sim.stats.RunResult`; the request lifecycle itself
lives in :mod:`repro.sim.pipeline`, the scheme behaviour in
:mod:`repro.core.policies`, and the DRAM service discipline in
:mod:`repro.memory.sched`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.address import AddressMapper
from repro.common.config import CORE_EVENT, VALID_CORES, SimConfig
from repro.common.types import PredictionStats
from repro.core.mee import MemoryEncryptionEngine, TruthProvider
from repro.core.victim import VictimController
from repro.memory.dram import DRAMChannel
from repro.memory.l2 import PartitionL2
from repro.memory.sched import build_scheduler
from repro.obs.decisions import NULL_LEDGER
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.sim.events import CompletionWindow
from repro.sim.frontend import Frontend, iter_batches
from repro.sim.pipeline import L2_HIT_LATENCY, MemoryPipeline, ObserverHooks
from repro.sim.stats import LatencyStats, RunResult
from repro.workloads.base import HostEvent, Workload

__all__ = ["GPUSimulator", "L2_HIT_LATENCY"]


class GPUSimulator:
    """One simulation instance (one workload x scheme run)."""

    def __init__(
        self,
        config: SimConfig,
        truth: Optional[TruthProvider] = None,
        record_stream: bool = False,
        observer: Optional[Observer] = None,
        ledger=None,
    ) -> None:
        self.config = config
        self.scheme = config.scheme
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        # Decision ledger (decision-granularity provenance): unlike an
        # observer it does NOT force the legacy core — see run().
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        gpu = config.gpu
        if self.ledger.enabled:
            self.ledger.configure(
                gpu.dram_request_overhead, gpu.dram_bytes_per_cycle,
                config.scheme.detectors.blocks_per_chunk,
            )
        self.mapper = AddressMapper(gpu.num_partitions, gpu.interleave_bytes)
        self.channels = [
            DRAMChannel(gpu.dram_bytes_per_cycle, gpu.dram_latency,
                        gpu.dram_request_overhead, gpu.dram_turnaround,
                        partition=p, observer=self.obs,
                        scheduler=build_scheduler(gpu))
            for p in range(gpu.num_partitions)
        ]
        self.l2 = [PartitionL2(gpu, p, observer=self.obs)
                   for p in range(gpu.num_partitions)]

        self.mees: List[MemoryEncryptionEngine] = []
        self.victims: List[VictimController] = []
        if self.scheme.is_secure:
            from repro.metadata.counters import SharedCounter

            shared = SharedCounter()
            for p in range(gpu.num_partitions):
                mee = MemoryEncryptionEngine(p, config, self.mapper, shared,
                                             truth, observer=self.obs,
                                             ledger=self.ledger)
                if self.scheme.l2_victim_cache:
                    victim = VictimController(
                        self.l2[p], self.scheme.victim_missrate_threshold
                    )
                    mee.caches.l2 = self.l2[p]
                    mee.caches.victim_enabled = victim.enabled
                    self.victims.append(victim)
                self.mees.append(mee)

        hooks = ObserverHooks(self.obs) if self._observe else None
        self.pipeline = MemoryPipeline(
            config, self.mapper, self.channels, self.l2, self.mees,
            hooks=hooks, record_stream=record_stream,
        )
        self._latency = LatencyStats()

    @property
    def streams(self) -> Dict[int, List[Tuple[int, bool, int]]]:
        """Recorded per-partition (offset, is_write, kernel) streams."""
        return self.pipeline.streams

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        gap: float = 0.001,
        max_inflight: Optional[int] = None,
    ) -> RunResult:
        """Simulate the workload.

        ``max_inflight`` is the calibrated memory-level parallelism of
        this workload (the knob the runner tunes to hit the published
        bandwidth utilisation); ``gap`` adds a per-access compute floor
        and is usually left at its near-zero default — the paper's
        suite is memory bound.

        Dispatches on ``SimConfig.core``: the event core runs kernels
        as batches through :meth:`MemoryPipeline.run_batch` (bit-
        identical results, several times faster); the legacy per-
        access loop remains for ``core="legacy"`` and for observed
        runs, whose hook/event stream is defined access by access.
        A decision ledger does *not* force the fallback — its taps
        fire at decision granularity on both cores.
        """
        core = self.config.core
        if core not in VALID_CORES:
            raise ValueError(
                f"unknown execution core {core!r}; expected one of "
                f"{VALID_CORES} (check SimConfig.core / REPRO_CORE)"
            )
        window = max_inflight or self.config.gpu.max_inflight_requests
        if core == CORE_EVENT and not self._observe:
            return self._run_event(workload, gap, window)
        return self._run_legacy(workload, gap, window)

    def _run_event(self, workload: Workload, gap: float,
                   window_size: int) -> RunResult:
        """The batched event-driven run loop: per kernel, translate +
        classify the whole batch, then advance the completion-window
        event queue access by access with no per-access Python call
        layers (see :meth:`MemoryPipeline.run_batch`)."""
        window = CompletionWindow(window_size, gap)
        pipeline = self.pipeline
        if self.mees:
            for event in workload.init_copies():
                self._host_copy(event, at_init=True)

        latency = self._latency
        for kernel_idx, kernel in iter_batches(workload):
            pipeline.kernel_idx = kernel_idx
            self._kernel_boundary(kernel_idx, kernel.host_events,
                                  window.last_issue)
            pipeline.run_batch(window, kernel.accesses, latency)

        end = pipeline.final_flush(window.drain())
        cycles = max(
            end,
            max((ch.next_free + ch.latency for ch in self.channels
                 if ch.stats.requests), default=0.0),
        )
        return self._result(workload, cycles)

    def _run_legacy(self, workload: Workload, gap: float,
                    window_size: int) -> RunResult:
        """The per-access run loop (``core="legacy"`` and every
        observed run: the observer vocabulary — stall spans, per-
        request lifecycle hooks — is defined at access granularity)."""
        frontend = Frontend(window_size, gap)
        pipeline = self.pipeline
        observe = self._observe
        if observe:
            # .label, not .scheme.value: a custom registry scheme must
            # not collide with its base design's run in the exports.
            self.obs.begin_run(f"{workload.name}/{self.scheme.label}",
                               self.config.gpu.num_partitions)

        if self.mees:
            for event in workload.init_copies():
                self._host_copy(event, at_init=True)

        prev_issue = 0.0
        for kernel_idx, kernel in enumerate(workload.kernels):
            pipeline.kernel_idx = kernel_idx
            self._kernel_boundary(kernel_idx, kernel.host_events,
                                  frontend.last_issue)
            if observe:
                self.obs.kernel(kernel_idx, frontend.last_issue)
            for addr, is_write, nsectors in kernel.accesses:
                issue = frontend.issue()
                if observe:
                    if frontend.last_stall > 0.0:
                        # Clamp to the stall's non-overlapping portion:
                        # with a near-zero issue gap every queued access
                        # nominally waits from cycle ~0, but only the
                        # advance past the previous issue is new stall.
                        start = max(issue - frontend.last_stall, prev_issue)
                        if issue > start:
                            self.obs.stall(start, issue)
                    prev_issue = issue
                completion = pipeline.access(issue, addr, is_write,
                                             nsectors).completion
                if not is_write:
                    self._latency.record(completion - issue)
                    if observe:
                        self.obs.read_latency(issue, completion - issue)
                frontend.complete(completion)

        end = pipeline.final_flush(frontend.drain())
        cycles = max(
            end,
            max((ch.next_free + ch.latency for ch in self.channels
                 if ch.stats.requests), default=0.0),
        )
        result = self._result(workload, cycles)
        if observe:
            self.obs.end_run(result)
        return result

    # ------------------------------------------------------------------
    # Kernel boundaries and host events
    # ------------------------------------------------------------------

    def _kernel_boundary(self, kernel_idx: int, events: List[HostEvent],
                         cycle: float = 0.0) -> None:
        if self.mees:
            for event in events:
                if event.kind == "copy":
                    self._host_copy(event, at_init=False, cycle=cycle)
                elif event.kind == "readonly_reset":
                    self._reset_api(event, cycle=cycle)
                else:
                    raise ValueError(f"unknown host event kind: {event.kind}")
            for mee in self.mees:
                mee.on_kernel_boundary(kernel_idx, cycle)
        for victim in self.victims:
            victim.on_kernel_boundary()

    def _host_copy(self, event: HostEvent, at_init: bool,
                   cycle: float = 0.0) -> None:
        for p, mee in enumerate(self.mees):
            lo, hi = self.mapper.local_span(event.start, event.size, p)
            if hi > lo:
                mee.on_host_copy(lo, hi, at_init=at_init, cycle=cycle)

    def _reset_api(self, event: HostEvent, cycle: float = 0.0) -> None:
        for p, mee in enumerate(self.mees):
            lo, hi = self.mapper.local_span(event.start, event.size, p)
            if hi > lo:
                mee.input_read_only_reset(lo, hi, cycle=cycle)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _result(self, workload: Workload, cycles: float) -> RunResult:
        readonly_stats = PredictionStats()
        streaming_stats = PredictionStats()
        shared_reads = 0
        common_hits = 0
        mdc_accesses = 0
        verdicts = 0
        transitions = 0
        for mee in self.mees:
            readonly_stats.merge(mee.readonly_stats)
            streaming_stats.merge(mee.streaming_stats)
            shared_reads += mee.shared_counter_reads
            common_hits += mee.common_counter_hits
            mdc_accesses += (mee.caches.counter.accesses
                             + mee.caches.mac.accesses
                             + mee.caches.bmt.accesses)
            verdicts += mee.streaming.verdicts
            transitions += mee.readonly.transitions

        victim_hits = sum(
            bank.victim_hits for part in self.l2 for bank in part.banks
        )
        victim_insertions = sum(
            bank.victim_insertions for part in self.l2 for bank in part.banks
        )
        utilization = (
            sum(ch.utilization(cycles) for ch in self.channels)
            / len(self.channels)
        )
        return RunResult(
            workload=workload.name,
            scheme=self.scheme.scheme,
            cycles=cycles,
            instructions=workload.instructions,
            traffic=self.pipeline.traffic,
            l2=self.pipeline.l2_stats,
            dram_utilization=utilization,
            latency=self._latency,
            readonly_stats=readonly_stats,
            streaming_stats=streaming_stats,
            shared_counter_reads=shared_reads,
            common_counter_hits=common_hits,
            mdc_accesses=mdc_accesses,
            victim_hits=victim_hits,
            victim_insertions=victim_insertions,
            stream_verdicts=verdicts,
            readonly_transitions=transitions,
        )
