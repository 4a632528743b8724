"""Integrity-tree traversal cost model.

The functional trees live in :mod:`repro.crypto.merkle` (BMT) and
:mod:`repro.crypto.counter_tree` (SGX-style); this module answers the
*traffic* question: which tree-node sectors must be touched to verify
or update one counter line, given the tree cache state.

Two traversal disciplines are supported, matching the paper's claim
that its schemes are integrity-tree independent:

* **BMT** (default, arity 16): the standard cached-tree optimisation —
  a node found in the cache is trusted, so traversal stops at the
  first hit for both reads and writes (lazy re-hash on eviction).
* **Counter tree** (SGX style, arity 8): reads stop at the first
  cached ancestor too, but writes bump version counters *eagerly* all
  the way to the on-chip root, dirtying every level.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.common import constants
from repro.metadata.caches import KIND_BMT, MetadataCaches
from repro.metadata.layout import bmt_levels, bmt_node_sector


@lru_cache(maxsize=None)
def _path_refs(levels: int, arity: int,
               leaf_index: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(line_key, sector)`` of every tree node on one leaf's
    path, bottom-up, excluding the on-chip root (level ``levels``).

    Pure tree-layout arithmetic, so it is memoised process-wide: a walk
    becomes one cached lookup instead of per-level division chains.
    The key space is bounded by the counter lines a workload actually
    touches.
    """
    refs = []
    node = leaf_index
    for level in range(1, levels):
        node //= arity
        ref = bmt_node_sector(level, node)
        refs.append((ref.line_key, ref.sector))
    return tuple(refs)


class BMTWalker:
    """Walks counter-line leaves up the per-partition (or global) tree."""

    def __init__(
        self,
        protected_bytes: int,
        arity: int = constants.BMT_ARITY,
        eager_writes: bool = False,
    ) -> None:
        if arity < 2:
            raise ValueError("tree arity must be at least 2")
        self.arity = arity
        self.eager_writes = eager_writes
        self.levels = bmt_levels(protected_bytes, arity)
        self.walks = 0
        self.nodes_touched = 0

    def walk(self, caches: MetadataCaches, leaf_index: int,
             is_write: bool) -> None:
        """Verify (read) or update (write) the path of one leaf.

        Reads stop at the first level that hits in the tree cache —
        that ancestor is already verified/owned on chip.  Writes do
        the same under the lazy (BMT) discipline, or continue to the
        top under the eager (counter-tree) discipline.  The root
        itself is on chip and never generates traffic.
        """
        self.walks += 1
        stop_at_hit = not (is_write and self.eager_writes)
        access = caches.access
        for key, sector in _path_refs(self.levels, self.arity, leaf_index):
            self.nodes_touched += 1
            if access(KIND_BMT, key, sector, is_write, True) and stop_at_hit:
                break
