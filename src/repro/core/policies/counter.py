"""Counter policies: split (baseline), common-counter compression and
the paper's shared read-only counter, as composable decorator layers.

The composition ``SharedReadonly(Common(Split))`` is control-flow
identical to the historical ``MemoryEncryptionEngine._counter_path``:
each layer either short-circuits (returning early exactly where the
original ``return`` statements sat) or delegates to its inner layer
(the original fall-through).  One deliberate fidelity quirk: under
common counters, a *write* that diverges no common line records the
write in the counter file twice — once in the common layer, once again
in the split layer it falls through to — because the original code did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.policies.base import CounterPolicy
from repro.metadata import layout as mlayout

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core.mee import MemoryEncryptionEngine


class SplitCounterPolicy(CounterPolicy):
    """The baseline split-counter organisation: every access reads or
    read-modify-writes its per-block minor counter through the counter
    cache; minor-counter overflow re-encrypts the line's coverage."""

    def access(self, cycle: float, block_id: int,
               region_id: int, is_write: bool) -> bool:
        mee = self.mee
        if is_write:
            overflow = mee.counters.record_write(block_id)
            if overflow:
                line = mlayout.counter_line(block_id)
                if mee._led:
                    mee._led_begin()
                    mee._reencrypt_line(line)
                    mee.led.ctr_overflow(
                        cycle, mee.partition_id, mee.kernel_idx,
                        block_id, line, *mee._led_end())
                else:
                    mee._reencrypt_line(line)
            mee._ctr_access(block_id, is_write=True, fetch=True)
        else:
            mee._ctr_access(block_id, is_write=False, fetch=True)
        return False


class CommonCounterPolicy(CounterPolicy):
    """Common-counter compression [17]: accesses to a line whose
    counters are still common need no counter fetch.  The first
    diverging write materialises the line's per-block counters in the
    counter cache (write-allocate, no fetch) and falls through to the
    inner policy on later accesses."""

    def __init__(self, mee: "MemoryEncryptionEngine",
                 inner: CounterPolicy) -> None:
        super().__init__(mee)
        self.inner = inner

    def access(self, cycle: float, block_id: int,
               region_id: int, is_write: bool) -> bool:
        mee = self.mee
        ctr_line = mlayout.counter_line(block_id)
        if is_write:
            was_common = mee.common.is_common(ctr_line)
            mee.common.record_write(ctr_line, block_id)
            mee.counters.record_write(block_id)
            if was_common:
                mee._ctr_access(block_id, is_write=True, fetch=False)
                mee.common_counter_hits += 1
                if mee._observe:
                    mee.obs.mee_event(mee.partition_id,
                                      "common_counter_hit", cycle)
                return False
        elif mee.common.is_common(ctr_line):
            mee.common_counter_hits += 1
            if mee._observe:
                mee.obs.mee_event(mee.partition_id,
                                  "common_counter_hit", cycle)
            return False
        return self.inner.access(cycle, block_id, region_id, is_write)


class SharedReadonlyCounterPolicy(CounterPolicy):
    """This paper's optimisation (Figs. 4 and 8): reads of regions the
    detector predicts read-only use the on-chip shared counter — no
    counter fetch, no BMT walk.  A store to such a region folds it back
    under the BMT by propagating the shared counter into its major
    counters, then proceeds through the inner policy."""

    def __init__(self, mee: "MemoryEncryptionEngine",
                 inner: CounterPolicy) -> None:
        super().__init__(mee)
        self.inner = inner

    def access(self, cycle: float, block_id: int,
               region_id: int, is_write: bool) -> bool:
        mee = self.mee
        predicted_ro = mee.readonly.predict(region_id)
        mee._record_readonly_stat(region_id, predicted_ro)
        if is_write:
            # Probe the slot's aliasing state before on_store mutates it.
            evicted = (mee.readonly.aliased_clearer(region_id)
                       if mee._led else -1)
            transitioned = mee.readonly.on_store(region_id)
            if transitioned:
                if mee._led:
                    mee._led_begin()
                    mee._propagate_shared_counter(region_id)
                    mee.led.ro_transition(
                        cycle, mee.partition_id, mee.kernel_idx,
                        region_id, evicted, *mee._led_end())
                else:
                    mee._propagate_shared_counter(region_id)
        elif predicted_ro:
            mee.shared_counter_reads += 1
            if mee._observe:
                mee.obs.mee_event(mee.partition_id,
                                  "shared_counter_read", cycle)
            return True
        return self.inner.access(cycle, block_id, region_id, is_write)
