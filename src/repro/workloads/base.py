"""Workload abstractions: buffers, kernels, traces.

A :class:`Workload` is a sequence of :class:`Kernel` traces plus the
host-side events between them (H2D copies, ``input_read_only_reset``
calls).  Each kernel holds its accesses as a :class:`Trace`: three
parallel arrays, 10 B per access where a list of tuples takes about
100 B.  Buffers are allocated at addresses aligned so that their
partition-local footprints fall on 16 KB read-only-region boundaries in
every partition (``ALLOC_ALIGN`` = interleave × partitions × 64), which
mirrors how real allocators align large GPU buffers to page boundaries.
"""

from __future__ import annotations

import random
import zlib
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Set

from repro.common import constants
from repro.common.types import MemorySpace
from repro.workloads.patterns import Access

#: Allocation alignment keeping local offsets region-aligned (192 KB
#: with the default 256 B interleave across 12 partitions).
ALLOC_ALIGN = 256 * constants.NUM_PARTITIONS * 64


@dataclass(frozen=True)
class Buffer:
    """A device-memory allocation."""

    name: str
    address: int
    size: int
    space: MemorySpace = MemorySpace.GLOBAL
    #: Copied from the host at context initialisation (arms the
    #: read-only detector).
    host_init: bool = True

    @property
    def end(self) -> int:
        return self.address + self.size


@dataclass
class HostEvent:
    """A host-side action between kernels."""

    kind: str  # "copy" or "readonly_reset"
    start: int
    size: int


class Trace(SequenceABC):
    """One kernel's accesses, as three parallel arrays.

    ``addresses`` (``array('q')``), ``writes`` (``array('b')``, 1 for a
    store) and ``sectors`` (``array('b')``, sectors covered) hold 10 B
    per access.  As a sequence a trace behaves like the list of
    ``(address, is_write, n_sectors)`` tuples it was built from:
    iterating and indexing yield those tuples (``is_write`` a
    ``bool``), a slice is a :class:`Trace`, ``==`` holds against an
    equal trace or list, and it pickles and copies to an equal trace.
    Code that reads whole traces (the L2 resolution, the live L2 loop,
    the trace writers) reads the arrays directly.
    """

    __slots__ = ("addresses", "writes", "sectors")

    def __init__(self, accesses: Iterable[Access] = ()) -> None:
        self.addresses = array("q")
        self.writes = array("b")
        self.sectors = array("b")
        self.extend(accesses)

    def extend(self, accesses: Iterable[Access]) -> None:
        """Append ``accesses`` (a trace or any iterable of tuples)."""
        if isinstance(accesses, Trace):
            self.addresses.extend(accesses.addresses)
            self.writes.extend(accesses.writes)
            self.sectors.extend(accesses.sectors)
            return
        add = self.addresses.append
        write = self.writes.append
        cover = self.sectors.append
        try:
            for address, is_write, n_sectors in accesses:
                add(address)
                write(1 if is_write else 0)
                cover(n_sectors)
        except OverflowError:
            # A value outside its column's range: drop the half-added
            # access and name the field.
            if len(self.addresses) == len(self.sectors):
                name, value = "address", address
            else:
                name, value = "n_sectors", n_sectors
            del self.addresses[len(self.sectors):]
            del self.writes[len(self.sectors):]
            lo, hi = _RANGES[name]
            raise ValueError(
                f"trace {name} {value!r} is outside {lo}..{hi}") from None

    def __len__(self) -> int:
        return len(self.sectors)

    def __iter__(self) -> Iterator[Access]:
        return zip(self.addresses, map(bool, self.writes), self.sectors)

    def __getitem__(self, index):
        if isinstance(index, slice):
            trace = Trace()
            trace.addresses = self.addresses[index]
            trace.writes = self.writes[index]
            trace.sectors = self.sectors[index]
            return trace
        return (self.addresses[index], bool(self.writes[index]),
                self.sectors[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return (self.addresses == other.addresses
                    and self.writes == other.writes
                    and self.sectors == other.sectors)
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    def __getstate__(self) -> tuple:
        return self.addresses, self.writes, self.sectors

    def __setstate__(self, state: tuple) -> None:
        self.addresses, self.writes, self.sectors = state

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"


#: The values each integer column of a :class:`Trace` holds.
_RANGES = {"address": (-(1 << 63), (1 << 63) - 1), "n_sectors": (-128, 127)}


@dataclass
class Kernel:
    """One kernel launch: its trace and the host events preceding it.

    ``accesses`` may be given as any sequence of access tuples; the
    kernel holds it as a :class:`Trace`."""

    name: str
    accesses: Trace
    host_events: List[HostEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.accesses, Trace):
            self.accesses = Trace(self.accesses)


@dataclass
class Workload:
    """A complete GPU application model."""

    name: str
    kernels: List[Kernel]
    buffers: List[Buffer]
    #: Target DRAM bandwidth utilisation of the unprotected run
    #: (Table VII); the runner calibrates the issue rate to hit it.
    bandwidth_utilization: float
    description: str = ""
    #: Instructions per memory access (sets the IPC scale only).
    instructions_per_access: int = 12

    @property
    def total_accesses(self) -> int:
        return sum(len(k.accesses) for k in self.kernels)

    @property
    def instructions(self) -> int:
        return self.total_accesses * self.instructions_per_access

    @property
    def spaces(self) -> Set[MemorySpace]:
        return {b.space for b in self.buffers}

    def init_copies(self) -> List[HostEvent]:
        """Context-initialisation H2D copies (arm the RO detector)."""
        return [
            HostEvent("copy", b.address, b.size)
            for b in self.buffers
            if b.host_init
        ]

    def validate(self) -> None:
        """Sanity-check that every access falls inside a buffer."""
        spans = sorted((b.address, b.end) for b in self.buffers)
        for kernel in self.kernels:
            addresses = kernel.accesses.addresses
            for addr in addresses[:: max(1, len(addresses) // 64)]:
                if not any(lo <= addr < hi for lo, hi in spans):
                    raise ValueError(
                        f"{self.name}/{kernel.name}: access {addr:#x} outside buffers"
                    )


class WorkloadBuilder:
    """Incremental construction of a workload's buffers and kernels."""

    def __init__(self, name: str, bandwidth_utilization: float,
                 seed: int = 0, description: str = "") -> None:
        if not 0.0 < bandwidth_utilization <= 1.0:
            raise ValueError("bandwidth_utilization must be in (0, 1]")
        self.name = name
        self.bandwidth_utilization = bandwidth_utilization
        self.description = description
        # zlib.crc32, unlike hash(), is stable across processes: traces
        # must be byte-identical between runs for reproducibility.
        self.rng = random.Random(seed if seed else zlib.crc32(name.encode()))
        self._buffers: List[Buffer] = []
        self._kernels: List[Kernel] = []
        self._next_address = 0

    def alloc(
        self,
        name: str,
        size: int,
        space: MemorySpace = MemorySpace.GLOBAL,
        host_init: bool = True,
    ) -> Buffer:
        size = -(-size // ALLOC_ALIGN) * ALLOC_ALIGN
        buf = Buffer(name, self._next_address, size, space, host_init)
        self._next_address += size
        self._buffers.append(buf)
        return buf

    def kernel(
        self,
        name: str,
        accesses: Sequence[Access],
        copies: Sequence[Buffer] = (),
        readonly_resets: Sequence[Buffer] = (),
    ) -> Kernel:
        """Add a kernel; ``copies`` are mid-run H2D copies before the
        launch (they clear RO bits) and ``readonly_resets`` invoke the
        paper's new API (they set RO bits and raise the shared
        counter)."""
        events = [HostEvent("copy", b.address, b.size) for b in copies]
        events += [
            HostEvent("readonly_reset", b.address, b.size) for b in readonly_resets
        ]
        k = Kernel(name, Trace(accesses), events)
        self._kernels.append(k)
        return k

    def build(self) -> Workload:
        workload = Workload(
            name=self.name,
            kernels=self._kernels,
            buffers=self._buffers,
            bandwidth_utilization=self.bandwidth_utilization,
            description=self.description,
        )
        workload.validate()
        return workload
