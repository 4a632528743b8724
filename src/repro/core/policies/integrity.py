"""Integrity policies: which tree (if any) protects the counters.

* ``"bmt"`` — the paper's arity-16 Bonsai Merkle tree with lazy write
  propagation (writes stop at the first cached ancestor).
* ``"counter_tree"`` — an SGX-style arity-8 counter tree whose write
  path eagerly updates every level to the root.
* ``"none"`` — no integrity tree: counters are encrypted but not
  replay-protected.  A modelling baseline that isolates the BMT's
  share of the metadata traffic; not a secure configuration.
"""

from __future__ import annotations

from typing import Dict

from repro.core.policies.base import IntegrityPolicy
from repro.metadata.bmt import BMTWalker
from repro.metadata.caches import MetadataCaches


class NullWalker:
    """A no-traffic stand-in with the :class:`BMTWalker` interface."""

    arity = 0
    levels = 0

    def __init__(self) -> None:
        self.walks = 0
        self.nodes_touched = 0

    def walk(self, caches: MetadataCaches, leaf_index: int,
             is_write: bool) -> None:
        self.walks += 1


class BMTIntegrityPolicy(IntegrityPolicy):
    name = "bmt"

    def build_walker(self, protected_bytes: int) -> BMTWalker:
        return BMTWalker(protected_bytes)


class CounterTreeIntegrityPolicy(IntegrityPolicy):
    name = "counter_tree"

    def build_walker(self, protected_bytes: int) -> BMTWalker:
        from repro.crypto.counter_tree import CTREE_ARITY

        return BMTWalker(protected_bytes, arity=CTREE_ARITY,
                         eager_writes=True)


class NullIntegrityPolicy(IntegrityPolicy):
    name = "none"

    def build_walker(self, protected_bytes: int) -> NullWalker:
        return NullWalker()


#: ``SchemeConfig.integrity_tree`` value -> policy.
INTEGRITY_POLICIES: Dict[str, IntegrityPolicy] = {
    p.name: p for p in (BMTIntegrityPolicy(), CounterTreeIntegrityPolicy(),
                        NullIntegrityPolicy())
}


def integrity_policy(name: str) -> IntegrityPolicy:
    policy = INTEGRITY_POLICIES.get(name)
    if policy is None:
        raise ValueError(
            f"unknown integrity tree: {name!r}; "
            f"available: {', '.join(sorted(INTEGRITY_POLICIES))}"
        )
    return policy
