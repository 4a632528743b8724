"""Host-side programming API of the secure GPU (command processor view).

Thin convenience layer tying the host programming model of the paper —
context creation with key generation, H2D copies that mark read-only
regions, the ``input_read_only_reset`` API — to a functional
:class:`repro.core.functional.SecureMemoryDevice`.  Examples and
integration tests use this instead of wiring the pieces by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common import constants
from repro.core.functional import SecureMemoryDevice
from repro.crypto.keys import KeyGenerator, KeyTuple


@dataclass
class Allocation:
    """One device-memory buffer."""

    name: str
    address: int
    size: int
    read_only: bool


class SecureGPUContext:
    """One GPU context: keys, a protected memory range, allocations.

    >>> ctx = SecureGPUContext(memory_bytes=1 << 20)
    >>> buf = ctx.alloc("input", 4096)
    >>> ctx.memcpy_h2d(buf, b"\\x07" * 4096, read_only=True)
    >>> ctx.read(buf.address, 128)[:4]
    b'\\x07\\x07\\x07\\x07'
    """

    def __init__(
        self,
        context_id: int = 0,
        memory_bytes: int = 64 * 1024 * 1024,
        key_generator: Optional[KeyGenerator] = None,
    ) -> None:
        generator = key_generator or KeyGenerator()
        self.keys: KeyTuple = generator.context_keys(context_id)
        self.device = SecureMemoryDevice(self.keys, size_bytes=memory_bytes)
        self._allocations: Dict[str, Allocation] = {}
        self._next_address = 0
        self.memory_bytes = memory_bytes

    # -- Allocation -------------------------------------------------------------

    def alloc(self, name: str, size: int) -> Allocation:
        """cudaMalloc: reserve a region-aligned buffer."""
        if name in self._allocations:
            raise ValueError(f"buffer {name!r} already allocated")
        if size <= 0:
            raise ValueError("size must be positive")
        align = self.device.region_size
        size = -(-size // constants.BLOCK_SIZE) * constants.BLOCK_SIZE
        address = self._next_address
        self._next_address = -(-(address + size) // align) * align
        if self._next_address > self.memory_bytes:
            raise MemoryError("device memory exhausted")
        allocation = Allocation(name, address, size, read_only=False)
        self._allocations[name] = allocation
        return allocation

    def buffer(self, name: str) -> Allocation:
        return self._allocations[name]

    # -- Data movement -------------------------------------------------------------

    def memcpy_h2d(self, buf: Allocation, data: bytes, read_only: bool = True) -> None:
        """Host-to-device copy.  ``read_only=True`` corresponds to the
        context-initialisation path that arms the read-only detector."""
        if len(data) > buf.size:
            raise ValueError("copy larger than buffer")
        data = self._pad(data)
        self.device.host_copy(buf.address, data, read_only=read_only)
        buf.read_only = read_only

    def memcpy_d2h(self, buf: Allocation, size: Optional[int] = None) -> bytes:
        size = buf.size if size is None else size
        size = -(-size // constants.BLOCK_SIZE) * constants.BLOCK_SIZE
        out = bytearray()
        for offset in range(0, size, constants.BLOCK_SIZE):
            out += self.device.read(buf.address + offset)
        return bytes(out)

    def read(self, address: int, size: int) -> bytes:
        out = bytearray()
        first = address - (address % constants.BLOCK_SIZE)
        last = address + size
        for block_addr in range(first, last, constants.BLOCK_SIZE):
            out += self.device.read(block_addr)
        start = address - first
        return bytes(out[start : start + size])

    def write(self, address: int, data: bytes) -> None:
        """A kernel store of arbitrary alignment and length.

        Misaligned or partial blocks are read-modify-written: the
        surrounding block is fetched (verified), spliced and
        re-encrypted — the same thing a store through a write-back
        cache does.
        """
        if not data:
            return
        block = constants.BLOCK_SIZE
        first = address - address % block
        last = address + len(data)
        for block_addr in range(first, last, block):
            lo = max(address, block_addr)
            hi = min(last, block_addr + block)
            if hi - lo == block:
                payload = data[lo - address : hi - address]
            else:
                existing = bytearray(self.device.read(block_addr))
                existing[lo - block_addr : hi - block_addr] = \
                    data[lo - address : hi - address]
                payload = bytes(existing)
            self.device.write(block_addr, payload)

    def input_read_only_reset(self, buf: Allocation) -> int:
        """The paper's new host API applied to one buffer."""
        value = self.device.input_read_only_reset(buf.address, buf.size)
        buf.read_only = True
        return value

    @staticmethod
    def _pad(data: bytes) -> bytes:
        remainder = len(data) % constants.BLOCK_SIZE
        if remainder:
            data = data + bytes(constants.BLOCK_SIZE - remainder)
        return data
