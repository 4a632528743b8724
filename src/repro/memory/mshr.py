"""Miss Status Holding Registers: merge concurrent misses to one sector.

A second miss to a sector that is already being fetched must not issue
a second DRAM request; it piggybacks on the outstanding fill and
completes when that fill returns.  A full MSHR file stalls new misses
until an entry frees.

The file keeps one record per line with fills in flight, mapping each
of the line's in-flight sectors to its completion cycle: a read probes
its line once, and a fill burst is stored as one record.  Capacity is
counted in sector entries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

from repro.common import constants

#: The sectors of each sector mask, ascending.
MASK_SECTORS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(s for s in range(constants.SECTORS_PER_BLOCK) if mask >> s & 1)
    for mask in range(1 << constants.SECTORS_PER_BLOCK))


class MSHRFile:
    """Tracks outstanding fills, one record per line."""

    def __init__(self, entries: int, merge_width: int = 16) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if merge_width < 1:
            raise ValueError("merge_width must be at least 1")
        self.entries = entries
        self.merge_width = merge_width
        #: line -> {sector: completion cycle} of the line's fills.  A
        #: returned fill stays (stale) until an expiry or a lookup
        #: drops it; a line whose last entry is dropped leaves.
        self.inflight: Dict[Hashable, Dict[int, float]] = {}
        #: line -> {sector: merged request count} of the entries that
        #: merged a request (an entry absent here counts 1).
        self._merged: Dict[Hashable, Dict[int, int]] = {}
        #: Sector entries held, stale ones included.
        self.occupancy = 0
        self.merges = 0
        self.stall_events = 0

    def lookup(self, line: Hashable, sector: int,
               now: float) -> Optional[float]:
        """If a fill for ``sector`` of ``line`` is in flight, merge and
        return its completion time; otherwise return None."""
        record = self.inflight.get(line)
        if record is None:
            return None
        done = record.get(sector)
        if done is None:
            return None
        if done <= now:
            # Fill already returned; entry is stale.
            self._drop(line, record, sector)
            return None
        counts = self._merged.get(line)
        merged = 1 if counts is None else counts.get(sector, 1)
        if merged >= self.merge_width:
            # Merge width exhausted; caller must treat this as a stall
            # until the fill returns (same completion time).
            self.stall_events += 1
            return done
        if counts is None:
            self._merged[line] = {sector: merged + 1}
        else:
            counts[sector] = merged + 1
        self.merges += 1
        return done

    def merge_read(self, line: Hashable, first: int, last: int,
                   missing: int, now: float) -> Tuple[float, int]:
        """Merge a read of sectors ``[first, last)`` of ``line`` into
        its fills in flight: every such sector with an entry is looked
        up, resident or not.  Returns the latest completion cycle merged
        into (0.0 when none) and the sector mask ``missing`` without the
        sectors that merged."""
        record = self.inflight.get(line)
        merged_done = 0.0
        if record is not None:
            for sector in range(first, last):
                if sector in record:
                    done = self.lookup(line, sector, now)
                    if done is not None:
                        missing &= ~(1 << sector)
                        if done > merged_done:
                            merged_done = done
        return merged_done, missing

    def allocate_burst(self, line: Hashable, sectors: Sequence[int],
                       done: float, now: float) -> float:
        """Reserve an entry for each of the distinct ``sectors`` of
        ``line`` that one fill burst fetches, all completing at
        ``done``.  Returns the earliest cycle the burst may be
        considered issued: later than ``now`` when the file was full
        and a sector had to wait for an entry to retire.

        Sectors are allocated in order.  For each, a full file first
        drops its stale entries; if it is still full, the sector waits
        (a stall event) until the earliest completion, and every entry
        completing then retires.  An allocation over a live entry
        restarts it, merge count included.  The data path ignores the
        returned cycle: MSHR pressure is modelled through the stall and
        expiry state alone."""
        inflight = self.inflight
        record = inflight.get(line)
        if record is None and 0 < len(sectors) <= (self.entries
                                                   - self.occupancy):
            inflight[line] = dict.fromkeys(sectors, done)
            self.occupancy += len(sectors)
            return now
        issue = now
        for sector in sectors:
            if self.occupancy >= self.entries:
                self._expire(now)
                if self.occupancy >= self.entries:
                    # Every entry left completes after ``now``.
                    earliest = min(min(r.values())
                                   for r in inflight.values())
                    self.stall_events += 1
                    if earliest > issue:
                        issue = earliest
                    self._expire(earliest)
                record = inflight.get(line)
            if record is None:
                record = inflight[line] = {}
            if sector in record:
                self._forget_merges(line, sector)
            else:
                self.occupancy += 1
            record[sector] = done
        return issue

    def _drop(self, line: Hashable, record: Dict[int, float],
              sector: int) -> None:
        del record[sector]
        self.occupancy -= 1
        if not record:
            del self.inflight[line]
        if self._merged:
            self._forget_merges(line, sector)

    def _forget_merges(self, line: Hashable, sector: int) -> None:
        counts = self._merged.get(line)
        if counts is not None and counts.pop(sector, None) is not None \
                and not counts:
            del self._merged[line]

    def _expire(self, now: float) -> None:
        """Drop every stale entry (``done <= now``); a line whose fills
        have all returned leaves whole."""
        inflight = self.inflight
        merged = self._merged
        for line in [line for line, record in inflight.items()
                     if min(record.values()) <= now]:
            record = inflight[line]
            if max(record.values()) <= now:
                del inflight[line]
                self.occupancy -= len(record)
                if merged:
                    merged.pop(line, None)
            else:
                for sector in [s for s, d in record.items() if d <= now]:
                    self._drop(line, record, sector)
