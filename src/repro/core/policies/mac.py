"""MAC policies: per-block MACs vs the paper's dual-granularity design.

:class:`DualGranularityMACPolicy` owns the two staleness maps that used
to live on the MEE — which chunks' coarse MACs lag their blocks, and
which chunks' DRAM block MACs lag the chunk MAC — because they are
meaningful only to this policy's Tables III/IV remedial machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

from repro.common import constants
from repro.common.types import Pattern
from repro.core.policies.base import MACPolicy
from repro.metadata import layout as mlayout
from repro.metadata.caches import KIND_MAC

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core.mee import MemoryEncryptionEngine
    from repro.core.streaming import Verdict


class BlockMACPolicy(MACPolicy):
    """One MAC per data block, verified on read, produced on write —
    the organisation of every non-adaptive scheme."""

    def access(self, cycle: float, block_id: int,
               chunk_id: int, block_offset: int, region_id: int,
               read_only: bool, is_write: bool) -> None:
        self.mee._blk_mac_access(block_id, is_write=is_write)


class DualGranularityMACPolicy(MACPolicy):
    """Dual-granularity MACs driven by the streaming detector
    (Section IV-C): streaming chunks verify one coarse chunk MAC,
    random chunks verify per-block MACs, and the MAT verdicts apply the
    misprediction remedies of Tables III and IV."""

    def __init__(self, mee: "MemoryEncryptionEngine") -> None:
        super().__init__(mee)
        #: Is each chunk's coarse MAC consistent with its blocks?
        #: (Consistent by default: context init computes both
        #: granularities.)
        self._chunk_mac_stale: Dict[int, bool] = {}
        #: Are a chunk's DRAM block MACs behind its data?  (Set when a
        #: STREAM verdict absorbs dirty block MACs into the chunk MAC.)
        self._blk_macs_stale: Dict[int, bool] = {}

    def access(self, cycle: float, block_id: int,
               chunk_id: int, block_offset: int, region_id: int,
               read_only: bool, is_write: bool) -> None:
        mee = self.mee
        predicted = mee.streaming.predict(chunk_id)
        mee._record_streaming_stat(chunk_id, predicted, region_id)
        tracked, verdicts = mee.streaming.on_access(
            cycle, chunk_id, block_offset, is_write
        )

        if is_write:
            # Every write back produces its block MAC into the MAC
            # cache *dirty* — correctness does not depend on a verdict
            # ever arriving.  When a STREAM verdict lands, the chunk
            # MAC absorbs them and the dirty bits are dropped (the
            # block-MAC write traffic of streaming chunks is averted).
            mee._blk_mac_access(block_id, is_write=True)
            self._chunk_mac_stale[chunk_id] = True
            if mee.scheme.mac_conflict_policy == "update_both":
                mee._chunk_mac_access(chunk_id, is_write=True)
                self._chunk_mac_stale.pop(chunk_id, None)
        elif predicted is Pattern.STREAM and tracked:
            # Coarse path: the monitoring MAT accumulates the chunk
            # digest, so one chunk-MAC fetch verifies the whole stream.
            mee._chunk_mac_access(chunk_id, is_write=False)
            if self._chunk_mac_stale.get(chunk_id, False):
                # The chunk MAC is out of date (writes since its last
                # production): the verification falls back to the
                # block MAC — the paper's "check the other MAC" remedy.
                mee.rechecks += 1
                if mee._observe:
                    mee.obs.mee_event(mee.partition_id, "mac_recheck",
                                      cycle)
                if mee._led:
                    mee._led_begin()
                    mee._blk_mac_access(block_id, is_write=False,
                                        as_mispred=True)
                    mee.led.mac_recheck(
                        cycle, mee.partition_id, mee.kernel_idx, chunk_id,
                        "stale_chunk_mac", *mee._led_end())
                else:
                    mee._blk_mac_access(block_id, is_write=False,
                                        as_mispred=True)
        else:
            # Predicted random, or no MAT free to accumulate a chunk
            # digest: per-block MAC verification.
            mee._blk_mac_access(block_id, is_write=False)
            if self._blk_macs_stale.get(chunk_id, False):
                # DRAM block MACs lag the chunk MAC (their dirty bits
                # were dropped at a STREAM verdict): fall back to the
                # chunk MAC.
                mee.rechecks += 1
                if mee._observe:
                    mee.obs.mee_event(mee.partition_id, "mac_recheck",
                                      cycle)
                if mee._led:
                    mee._led_begin()
                    mee._chunk_mac_access(chunk_id, is_write=False,
                                          as_mispred=True)
                    mee.led.mac_recheck(
                        cycle, mee.partition_id, mee.kernel_idx, chunk_id,
                        "stale_block_macs", *mee._led_end())
                else:
                    mee._chunk_mac_access(chunk_id, is_write=False,
                                          as_mispred=True)

        if verdicts:
            self._process_verdicts(cycle, verdicts)

    def _process_verdicts(self, cycle: float,
                          verdicts: "Sequence[Verdict]") -> None:
        """Apply each delivered verdict's remediation, bracketed by the
        ledger cost scope when a ledger is attached.  Overridable: the
        learned MAC policy measures the cost unconditionally and feeds
        it back into its model."""
        mee = self.mee
        for verdict in verdicts:
            if mee._observe:
                mee.obs.mee_event(
                    mee.partition_id,
                    f"verdict_{verdict.pattern.value}", cycle, instant=True,
                )
            if mee._led:
                mee._led_begin()
                self._handle_verdict(verdict)
                mee.led.stream_verdict(
                    cycle, mee.partition_id, mee.kernel_idx, verdict,
                    *mee._led_end())
            else:
                self._handle_verdict(verdict)

    def _handle_verdict(self, verdict: "Verdict") -> None:
        """Apply the remedial traffic of Tables III and IV when a MAT
        verdict disagrees with the prediction that was in force."""
        mee = self.mee
        chunk = verdict.chunk_id
        region = (chunk * mee.scheme.detectors.stream_chunk_size
                  ) // mee.scheme.detectors.readonly_region_size
        read_only = (
            mee.scheme.readonly_optimization and mee.readonly.predict(region)
        )
        blocks = mee.scheme.detectors.blocks_per_chunk
        first_block = chunk * blocks

        if verdict.pattern is Pattern.STREAM:
            if verdict.had_write:
                # Produce and update the chunk MAC from the block MACs
                # of the monitored stream, then drop their dirty bits:
                # one 8 B chunk MAC replaces 32 block-MAC write backs.
                mee._chunk_mac_access(chunk, is_write=True)
                self._chunk_mac_stale.pop(chunk, None)
                cleaned = 0
                for b in range(first_block, first_block + blocks,
                               mee._mac_sector_coverage):
                    ref = mlayout.mac_sector(b, mee.scheme.mac_size)
                    if mee.caches.clean(KIND_MAC, ref.line_key, ref.sector):
                        cleaned += 1
                if cleaned:
                    # The DRAM copies of those block MACs are now
                    # behind the data; the chunk MAC is authoritative.
                    self._blk_macs_stale[chunk] = True
            elif verdict.predicted is Pattern.RANDOM and not read_only:
                # Random->stream misprediction on a read stream: the
                # chunk MAC is re-fetched and re-produced (Table III,
                # last row).
                mee._chunk_mac_access(chunk, is_write=True,
                                      as_mispred=True)
                self._chunk_mac_stale.pop(chunk, None)
        else:  # RANDOM verdict
            if verdict.predicted is Pattern.STREAM:
                if self._blk_macs_stale.get(chunk, False):
                    # The chunk will be handled with block MACs from
                    # now on, but their DRAM copies are stale: re-fetch
                    # every data block (validated by the chunk MAC) and
                    # rewrite up-to-date block MACs (Table III row 3 /
                    # Table IV row 2).
                    mee._emit_bulk(blocks * constants.BLOCK_SIZE, False,
                                   "mispred")
                    for b in range(first_block, first_block + blocks,
                                   mee._mac_sector_coverage):
                        mee._blk_mac_access(b, is_write=True)
                    self._blk_macs_stale.pop(chunk, None)
                else:
                    # Block MACs are up to date (context init or dirty
                    # in cache); they only need re-fetching to verify
                    # the blocks that were actually read under the
                    # chunk MAC during the monitoring phase (Table III
                    # row 2) — the MAT's touched mask identifies them.
                    mask = verdict.touched_mask
                    block = first_block
                    while mask:
                        if mask & ((1 << mee._mac_sector_coverage) - 1):
                            mee._blk_mac_access(block, is_write=False,
                                                as_mispred=True)
                        mask >>= mee._mac_sector_coverage
                        block += mee._mac_sector_coverage
