"""GDDR DRAM channel model: a bandwidth-limited service queue.

Each memory partition owns one channel.  A request occupies the channel
for ``size / bytes_per_cycle`` cycles (bandwidth) and completes a flat
``latency`` after its service finishes (row access, bus turnaround,
etc. folded into one constant).  *When* a request occupies the bus is
decided by the channel's :class:`~repro.memory.sched.DRAMScheduler` —
FIFO by default, so metadata traffic queued ahead of demand data
delays that data: the contention mechanism at the heart of the paper.
Alternative disciplines (critical-first, banked row buffers) plug in
via :mod:`repro.memory.sched`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common import constants
from repro.memory.sched import DRAMScheduler, FIFOScheduler
from repro.obs.observer import NULL_OBSERVER


@dataclass
class DRAMStats:
    requests: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    busy_cycles: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


class DRAMChannel:
    """One partition's GDDR channel.

    The channel models *capacity* (occupancy, overheads, stats); its
    scheduler models *order*.  Schedulers place transactions on the
    bus through :meth:`occupy`.
    """

    def __init__(
        self,
        bytes_per_cycle: float = constants.DRAM_BYTES_PER_CYCLE,
        latency: int = constants.DRAM_LATENCY,
        request_overhead: float = 0.0,
        turnaround: float = 0.0,
        partition: int = 0,
        observer=None,
        scheduler: Optional[DRAMScheduler] = None,
    ) -> None:
        """``scheduler`` orders the channel's transactions (FIFO when
        omitted; :func:`repro.memory.sched.build_scheduler` picks the
        configured one)."""
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if request_overhead < 0:
            raise ValueError("request_overhead must be non-negative")
        if turnaround < 0:
            raise ValueError("turnaround must be non-negative")
        self.bytes_per_cycle = bytes_per_cycle
        self.latency = latency
        self.request_overhead = request_overhead
        self.turnaround = turnaround
        self.scheduler = (scheduler if scheduler is not None
                          else FIFOScheduler())
        self._next_free = 0.0
        self._last_was_write = False
        self.stats = DRAMStats()
        self.partition = partition
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        #: True when the discipline is plain FIFO and no observer is
        #: attached: ``service`` is then a pure pass-through to
        #: :meth:`occupy`, and callers may call ``occupy`` directly or
        #: inline its arithmetic (identical timing, call layers fewer;
        #: an inlined occupy emits no ``dram`` event, hence the
        #: observer condition).  Snapshot at construction — channels
        #: own their scheduler and observer for life.
        self.fifo_fast = (type(self.scheduler) is FIFOScheduler
                          and not self._observe)

    def service(self, arrival: float, size: int, is_write: bool = False,
                address: int = -1, kind: str = "data",
                critical: bool = False) -> float:
        """Enqueue a request; return its completion cycle.

        Completion = end of bus occupancy + flat latency.  Every
        request pays a fixed ``request_overhead`` (row activation /
        command bus) on top of its transfer time, which is what makes
        many small metadata transfers costlier than few large data ones
        (cf. the ECC-on-GDDR bandwidth observation in Section II-C).
        Writes are posted (the caller typically ignores their
        completion time) but still occupy the channel.  ``kind`` and
        ``critical`` describe the transaction to the scheduler — a
        reordering discipline may hold deferrable traffic back, in
        which case the returned cycle is its posted estimate.
        """
        if size <= 0:
            raise ValueError("request size must be positive")
        return self.scheduler.service(self, arrival, size, is_write,
                                      address, kind, critical)

    def occupy(self, arrival: float, size: int, is_write: bool,
               extra: float = 0.0) -> float:
        """Place one transaction on the bus *now* (scheduler entry
        point); returns its completion cycle.  ``extra`` adds
        discipline-specific occupancy (e.g. a row-activation penalty).
        """
        start = max(arrival, self._next_free)
        occupancy = self.request_overhead + size / self.bytes_per_cycle
        if is_write != self._last_was_write:
            # Read/write bus turnaround: mixing small metadata writes
            # into a read stream costs real GDDR bandwidth.
            occupancy += self.turnaround
            self._last_was_write = is_write
        if extra:
            occupancy += extra
        self._next_free = start + occupancy
        self.stats.requests += 1
        self.stats.busy_cycles += occupancy
        if is_write:
            self.stats.write_bytes += size
        else:
            self.stats.read_bytes += size
        if self._observe:
            self.obs.dram(self.partition, arrival, start, self._next_free,
                          size, is_write)
        return self._next_free + self.latency

    def estimate(self, size: int, is_write: bool) -> float:
        """Occupancy this transaction would cost if issued now (no
        state change) — schedulers use it to fit writes into idle gaps.
        """
        occupancy = self.request_overhead + size / self.bytes_per_cycle
        if is_write != self._last_was_write:
            occupancy += self.turnaround
        return occupancy

    def drain(self) -> float:
        """Teardown: flush any transactions the scheduler is holding
        back; returns the completion cycle of the last one (0.0 if
        none were pending)."""
        return self.scheduler.drain(self)

    @property
    def next_free(self) -> float:
        return self._next_free

    @property
    def last_was_write(self) -> bool:
        """Current bus direction: True after a write occupied the bus.
        Schedulers consult it to price the turnaround a transaction
        (or a gap-filled write burst) will cause."""
        return self._last_was_write

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of cycles the channel bus was occupied.

        Reported unclamped: a ratio above 1.0 means busy cycles were
        over-accounted (or ``elapsed_cycles`` undercounts the run) and
        should fail loudly in tests, not be masked.  The old
        ``min(1.0, ...)`` clamp hid exactly that class of bug.
        """
        if elapsed_cycles <= 0:
            return 0.0
        return self.stats.busy_cycles / elapsed_cycles
