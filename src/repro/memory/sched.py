"""Pluggable DRAM service disciplines (the scheduler layer).

:class:`repro.memory.dram.DRAMChannel` models *capacity* — bus
occupancy, request overhead, read/write turnaround — while the
scheduler decides *order*: which transaction occupies the bus next.
The channel delegates every :meth:`~repro.memory.dram.DRAMChannel.
service` call to its scheduler, and schedulers issue transactions onto
the bus through :meth:`~repro.memory.dram.DRAMChannel.occupy`.

Three disciplines ship with the simulator:

* :class:`FIFOScheduler` — arrival order, the paper's baseline model.
  Bit-identical to the historical inline ``DRAMChannel.service`` path.
* :class:`CriticalFirstScheduler` — defers non-critical MAC/BMT
  *writes* into a bounded write buffer and issues them only into bus
  idle gaps (or when the buffer overflows / at teardown), so
  decrypt-blocking counter fetches and demand data are never queued
  behind deferrable metadata write backs.
* :class:`BankedScheduler` — the bank-level row-buffer model promoted
  to a first-class policy: a transaction whose address falls in its
  bank's open row proceeds at bus speed, a row miss pays an activation
  penalty.

Schedulers are selected by name via :data:`SCHEDULERS` (the
``GPUConfig.dram_scheduler`` knob), so a campaign can sweep them as
ordinary config cells; :func:`register_scheduler` adds new disciplines
without touching the channel.

Critical-first only reorders metadata writes, so a run that moves
demand data alone (the unprotected calibration run) behaves exactly as
under FIFO; :func:`demand_data_gpu` says which GPU model such a run
exercises, and :func:`repro.sim.runner.calibration_key` keys shared
calibrations on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Tuple

from repro.common.config import GPUConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.memory.dram import DRAMChannel

#: Metadata kinds whose *writes* are deferrable: nothing waits on a MAC
#: or BMT update reaching DRAM (verification is off the critical path).
DEFERRABLE_WRITE_KINDS = frozenset({"mac", "bmt"})


def demand_data_gpu(gpu: GPUConfig) -> GPUConfig:
    """The GPU model a run that moves only demand data exercises.

    Such a run (the unprotected scheme: no MEE, so no metadata) offers
    every transfer as kind ``"data"``, which is not in
    :data:`DEFERRABLE_WRITE_KINDS`.  :class:`CriticalFirstScheduler`
    then never fills its write buffer and places every transfer in
    arrival order, as :class:`FIFOScheduler` does, so ``critical_first``
    maps to ``fifo`` (with the write-buffer depth back at its default).
    Every other discipline reorders or charges demand data itself and
    comes back unchanged.
    """
    if gpu.dram_scheduler != "critical_first":
        return gpu
    return replace(gpu, dram_scheduler="fifo",
                   dram_write_buffer=GPUConfig.dram_write_buffer)


class DRAMScheduler(ABC):
    """Service discipline of one :class:`DRAMChannel`.

    A scheduler is stateful and owned by exactly one channel.  It
    receives every transaction offered to the channel and decides when
    each one occupies the bus (via ``channel.occupy``); the return
    value of :meth:`service` is the transaction's completion cycle as
    seen by the caller.
    """

    name = "abstract"

    @abstractmethod
    def service(self, channel: "DRAMChannel", arrival: float, size: int,
                is_write: bool, address: int, kind: str,
                critical: bool) -> float:
        """Accept one transaction; return its completion cycle."""

    def drain(self, channel: "DRAMChannel") -> float:
        """Teardown: issue any transactions the discipline is still
        holding back.  Returns the completion cycle of the last one
        issued (0.0 when nothing was pending)."""
        return 0.0


class FIFOScheduler(DRAMScheduler):
    """Arrival-order service — the calibrated baseline discipline."""

    name = "fifo"

    def service(self, channel: "DRAMChannel", arrival: float, size: int,
                is_write: bool, address: int, kind: str,
                critical: bool) -> float:
        return channel.occupy(arrival, size, is_write)


class BankedScheduler(DRAMScheduler):
    """FIFO order plus a per-bank open-row model.

    ``address // row_bytes`` selects the global row; rows interleave
    across banks.  A transaction that misses its bank's open row pays
    ``row_miss_penalty`` extra occupancy (precharge + activate).
    Transactions without an address (``address < 0``) bypass the row
    model entirely.
    """

    name = "banked"

    def __init__(self, num_banks: int = 16, row_bytes: int = 2048,
                 row_miss_penalty: float = 20.0) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be at least 1")
        if row_bytes <= 0 or row_bytes & (row_bytes - 1):
            raise ValueError("row_bytes must be a power of two")
        if row_miss_penalty < 0:
            raise ValueError("row_miss_penalty must be non-negative")
        self.num_banks = num_banks
        self.row_bytes = row_bytes
        self.row_miss_penalty = row_miss_penalty
        self._open_rows = [-1] * num_banks

    def service(self, channel: "DRAMChannel", arrival: float, size: int,
                is_write: bool, address: int, kind: str,
                critical: bool) -> float:
        extra = 0.0
        if self.row_miss_penalty and address >= 0:
            row_global = address // self.row_bytes
            bank = row_global % self.num_banks
            row = row_global // self.num_banks
            if self._open_rows[bank] != row:
                self._open_rows[bank] = row
                extra = self.row_miss_penalty
        return channel.occupy(arrival, size, is_write, extra=extra)


class CriticalFirstScheduler(DRAMScheduler):
    """Prioritise decrypt-critical traffic over deferrable writes.

    MAC and BMT write backs are *posted*: nothing on the critical path
    waits for them, so holding them in a small write buffer and
    issuing them only when the bus would otherwise idle removes their
    queueing delay from demand reads and counter fetches.  The model:

    * a deferrable write enters the buffer instead of the bus; when
      the buffer exceeds ``capacity`` the oldest entry is forced out
      (real write buffers are finite);
    * before any non-deferrable transaction is issued, buffered writes
      whose full occupancy fits in the idle gap before ``arrival`` are
      issued into that gap — they complete before the demand
      transaction would have started, costing it nothing;
    * :meth:`drain` (context teardown) issues everything left.

    Total bytes moved are unchanged — only their timing shifts, which
    is exactly the contention effect the paper's MEE/DRAM interplay
    measures.
    """

    name = "critical_first"

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: Pending (arrival, size, address) write transactions.
        self._deferred: Deque[Tuple[float, int, int]] = deque()
        #: Total bytes buffered, maintained incrementally so the
        #: posted estimate never walks the queue.
        self._pending_bytes = 0

    def service(self, channel: "DRAMChannel", arrival: float, size: int,
                is_write: bool, address: int, kind: str,
                critical: bool) -> float:
        if is_write and kind in DEFERRABLE_WRITE_KINDS and not critical:
            self._deferred.append((arrival, size, address))
            self._pending_bytes += size
            while len(self._deferred) > self.capacity:
                self._issue_oldest(channel)
            return self._posted_estimate(channel, arrival)
        # Fill bus idle time before the demand transaction with
        # buffered writes that fit entirely into the gap — *including*
        # the read-return turnaround: issuing a write flips the bus to
        # write mode, so a demand read that would otherwise have paid
        # no turnaround now pays one.  That cost must fit in the gap
        # too, or "free" gap fills would delay the critical read they
        # were supposed to stay out of the way of.
        if self._deferred:
            return_cost = (
                channel.turnaround
                if not is_write and not channel.last_was_write
                else 0.0
            )
            while self._deferred:
                _, dsize, _ = self._deferred[0]
                if (channel.next_free + channel.estimate(dsize, True)
                        + return_cost > arrival):
                    break
                self._issue_oldest(channel)
        return channel.occupy(arrival, size, is_write)

    def _posted_estimate(self, channel: "DRAMChannel",
                         arrival: float) -> float:
        """Completion estimate for the newest buffered write, which
        arrived at ``arrival``.

        The write retires once the bus is free *and* everything queued
        ahead of it in the buffer has drained, each entry paying its
        own request overhead and transfer time (the old estimate —
        ``next_free + latency`` — pretended the write was free and
        ahead of its own queue).  If the bus is in read mode, the
        first drained write pays the turnaround once.  The queue is
        counted from ``next_free``, which on an idle bus lies in the
        write's past, so the estimate is floored at ``arrival +
        latency``: a write never completes before it arrives.  O(1):
        the buffered byte total is maintained incrementally.
        """
        occupancy = (len(self._deferred) * channel.request_overhead
                     + self._pending_bytes / channel.bytes_per_cycle)
        if not channel.last_was_write:
            occupancy += channel.turnaround
        return max(channel.next_free + occupancy + channel.latency,
                   arrival + channel.latency)

    def _issue_oldest(self, channel: "DRAMChannel") -> float:
        arrival, size, _ = self._deferred.popleft()
        self._pending_bytes -= size
        return channel.occupy(arrival, size, True)

    def drain(self, channel: "DRAMChannel") -> float:
        done = 0.0
        while self._deferred:
            done = self._issue_oldest(channel)
        return done

    @property
    def pending_writes(self) -> int:
        return len(self._deferred)


# ---------------------------------------------------------------------------
# The scheduler registry (the ``GPUConfig.dram_scheduler`` knob)
# ---------------------------------------------------------------------------

SchedulerFactory = Callable[["GPUConfig"], DRAMScheduler]

#: name -> per-channel factory.  Every entry is sweepable as a campaign
#: cell via ``replace(config.gpu, dram_scheduler=name)``.
SCHEDULERS: Dict[str, SchedulerFactory] = {}


def register_scheduler(name: str, factory: SchedulerFactory,
                       replace: bool = False) -> None:
    """Register a DRAM service discipline under ``name``.

    The factory is called once per channel with the run's
    :class:`~repro.common.config.GPUConfig` and must return a fresh
    scheduler instance (schedulers are stateful).
    """
    if not replace and name in SCHEDULERS:
        raise ValueError(f"scheduler {name!r} is already registered")
    SCHEDULERS[name] = factory


def available_schedulers() -> List[str]:
    return sorted(SCHEDULERS)


def build_scheduler(gpu: "GPUConfig") -> DRAMScheduler:
    """One fresh scheduler for one channel, per ``gpu.dram_scheduler``."""
    name = gpu.dram_scheduler
    factory = SCHEDULERS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown DRAM scheduler {name!r}; "
            f"available: {', '.join(available_schedulers())}"
        )
    return factory(gpu)


register_scheduler("fifo", lambda gpu: FIFOScheduler())
register_scheduler(
    "critical_first",
    lambda gpu: CriticalFirstScheduler(capacity=gpu.dram_write_buffer),
)
register_scheduler(
    "banked",
    lambda gpu: BankedScheduler(gpu.dram_num_banks, gpu.dram_row_bytes,
                                gpu.dram_row_miss_penalty),
)
