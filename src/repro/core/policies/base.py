"""Policy interfaces for the MEE's per-access decisions.

The :class:`~repro.core.mee.MemoryEncryptionEngine` used to branch on
~10 scheme flags inline; the branches are now three orthogonal policy
families, composed per scheme by :func:`repro.core.policies.
build_policies`:

* :class:`CounterPolicy` — what encryption-counter (and, transitively,
  BMT) traffic an access causes.  Counter policies are *decorators*:
  ``SharedReadonly(Common(Split))`` reproduces the original
  fall-through control flow, each layer either short-circuiting or
  delegating inward.
* :class:`MACPolicy` — block-granular vs the paper's dual-granularity
  MAC path with the streaming detector and Tables III/IV remedies.
* :class:`IntegrityPolicy` — which integrity-tree walker protects the
  counters (arity-16 lazy BMT, SGX-style eager counter tree, or none).

Policies are thin orchestrators: the metadata caches, counter files,
detectors and cache-access helpers stay on the owning MEE, so a policy
holds no simulation state beyond what is exclusively its own (e.g. the
dual-granularity staleness maps).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core.mee import MemoryEncryptionEngine


class CounterPolicy(ABC):
    """Encryption-counter handling for one access."""

    def __init__(self, mee: "MemoryEncryptionEngine") -> None:
        self.mee = mee

    @abstractmethod
    def access(self, cycle: float, block_id: int, region_id: int,
               is_write: bool) -> bool:
        """Emit this access's counter/BMT traffic (each transfer is
        placed on its DRAM channel as it is emitted).

        Returns whether the access was treated as read-only (the MAC
        path's Tables III/IV handling needs this).
        """


class MACPolicy(ABC):
    """MAC verification/update traffic for one access."""

    def __init__(self, mee: "MemoryEncryptionEngine") -> None:
        self.mee = mee

    @abstractmethod
    def access(self, cycle: float, block_id: int,
               chunk_id: int, block_offset: int, region_id: int,
               read_only: bool, is_write: bool) -> None:
        """Emit this access's MAC traffic."""


class IntegrityPolicy(ABC):
    """Selects the integrity-tree walker protecting the counters."""

    name = "abstract"

    @abstractmethod
    def build_walker(self, protected_bytes: int):
        """Return a walker with the :class:`~repro.metadata.bmt.
        BMTWalker` interface covering ``protected_bytes``."""
