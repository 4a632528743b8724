"""MSHR file: merging, stalls, expiry, and the per-line file against
the tuple-keyed model it replaced."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.mshr import MASK_SECTORS, MSHRFile


class TestLookup:
    def test_no_entry_returns_none(self):
        assert MSHRFile(4).lookup("a", 0, now=0) is None

    def test_merge_returns_completion(self):
        m = MSHRFile(4)
        m.allocate_burst("a", (0,), done=100, now=0)
        assert m.lookup("a", 0, now=10) == 100
        assert m.merges == 1

    def test_stale_entry_expired(self):
        m = MSHRFile(4)
        m.allocate_burst("a", (0,), done=100, now=0)
        assert m.lookup("a", 0, now=150) is None  # fill already returned
        assert m.occupancy == 0 and m.inflight == {}

    def test_merge_width_limit_stalls(self):
        m = MSHRFile(4, merge_width=2)
        m.allocate_burst("a", (0,), done=100, now=0)
        assert m.lookup("a", 0, now=1) == 100  # merge 2
        assert m.lookup("a", 0, now=2) == 100  # width exhausted: stall
        assert m.stall_events == 1

    def test_merge_read_merges_in_flight_sectors_only(self):
        m = MSHRFile(8)
        m.allocate_burst("a", (1, 2), done=100, now=0)
        # Sectors 0-2 are missing; 1 and 2 merge into the fill.
        assert m.merge_read("a", 0, 4, 0b0111, now=10) == (100, 0b0001)
        assert m.merges == 2
        assert m.merge_read("b", 0, 4, 0b1111, now=10) == (0.0, 0b1111)


class TestAllocate:
    def test_full_file_waits_for_earliest(self):
        m = MSHRFile(2)
        m.allocate_burst("a", (0,), done=50, now=0)
        m.allocate_burst("b", (0,), done=80, now=0)
        issue = m.allocate_burst("c", (0,), done=120, now=10)
        assert issue == 50  # stalled until the earliest entry retires
        assert m.stall_events == 1

    def test_expired_entries_freed(self):
        m = MSHRFile(2)
        m.allocate_burst("a", (0,), done=5, now=0)
        m.allocate_burst("b", (0,), done=6, now=0)
        issue = m.allocate_burst("c", (0,), done=100, now=50)  # both done
        assert issue == 50
        assert m.stall_events == 0

    def test_occupancy(self):
        m = MSHRFile(8)
        m.allocate_burst("a", (0,), done=10, now=0)
        m.allocate_burst("b", (0,), done=10, now=0)
        assert m.occupancy == 2

    def test_burst_is_one_record_of_sector_entries(self):
        m = MSHRFile(8)
        m.allocate_burst("a", (0, 1, 3), done=10, now=0)
        assert m.inflight == {"a": {0: 10, 1: 10, 3: 10}}
        assert m.occupancy == 3

    def test_forced_eviction_retires_every_earliest_entry(self):
        m = MSHRFile(3)
        m.allocate_burst("a", (0, 1), done=50, now=0)
        m.allocate_burst("b", (0,), done=80, now=0)
        assert m.allocate_burst("c", (0,), done=90, now=10) == 50
        assert m.inflight == {"b": {0: 80}, "c": {0: 90}}
        assert m.occupancy == 2 and m.stall_events == 1

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            MSHRFile(0)

    def test_rejects_merge_width_below_one(self):
        with pytest.raises(ValueError, match="merge_width"):
            MSHRFile(4, merge_width=0)


def test_mask_sectors():
    assert MASK_SECTORS[0] == ()
    assert MASK_SECTORS[0b1011] == (0, 1, 3)
    assert all(sum(1 << s for s in MASK_SECTORS[mask]) == mask
               for mask in range(16))


# ---------------------------------------------------------------------------
# The per-line file against the tuple-keyed model
# ---------------------------------------------------------------------------

class ReferenceMSHRFile:
    """The tuple-keyed MSHR file the per-line one replaced, kept as the
    model it must match operation by operation.  Its code is unchanged
    except that :meth:`allocate_burst` returns the latest issue cycle
    of its allocations."""

    def __init__(self, entries, merge_width=16):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.entries = entries
        self.merge_width = merge_width
        # sector key -> (completion cycle, merged request count)
        self._outstanding = {}
        self.merges = 0
        self.stall_events = 0

    def lookup(self, key, now):
        entry = self._outstanding.get(key)
        if entry is None:
            return None
        done, merged = entry
        if done <= now:
            del self._outstanding[key]
            return None
        if merged >= self.merge_width:
            self.stall_events += 1
            return done
        self._outstanding[key] = (done, merged + 1)
        self.merges += 1
        return done

    def allocate(self, key, done, now):
        issue = now
        if len(self._outstanding) >= self.entries:
            self._expire(now)
        if len(self._outstanding) >= self.entries:
            earliest = min(done_t for done_t, _ in self._outstanding.values())
            self.stall_events += 1
            issue = max(issue, earliest)
            self._expire(issue)
        self._outstanding[key] = (done, 1)
        return issue

    def allocate_burst(self, line_key, sectors, done, now):
        outstanding = self._outstanding
        entries = self.entries
        issue = now
        for sector in sectors:
            if len(outstanding) < entries:
                outstanding[(line_key, sector)] = (done, 1)
            else:
                issue = max(issue,
                            self.allocate((line_key, sector), done, now))
        return issue

    def _expire(self, now):
        stale = [k for k, (done, _) in self._outstanding.items() if done <= now]
        for k in stale:
            del self._outstanding[k]

    @property
    def occupancy(self):
        return len(self._outstanding)


def _entries(mshr):
    """Every in-flight ``(line, sector, done, merged)`` entry; no line
    keeps an empty record or a merge count of a sector it no longer
    holds."""
    assert all(mshr.inflight.values())
    assert all(counts and counts.keys() <= mshr.inflight[line].keys()
               for line, counts in mshr._merged.items())
    return {(line, sector, done, mshr._merged.get(line, {}).get(sector, 1))
            for line, record in mshr.inflight.items()
            for sector, done in record.items()}


def _reference_entries(ref):
    return {(line, sector, done, merged)
            for (line, sector), (done, merged) in ref._outstanding.items()}


def _reference_merge_read(ref, line, first, last, missing, now):
    """The per-sector loop :meth:`MSHRFile.merge_read` replaced."""
    merged_done = 0.0
    for sector in range(first, last):
        done = ref.lookup((line, sector), now)
        if done is not None:
            missing &= ~(1 << sector)
            merged_done = max(merged_done, done)
    return merged_done, missing


_steps = st.lists(st.one_of(
    # (lookup, line, sector, clock advance)
    st.tuples(st.just("lookup"), st.integers(0, 5), st.integers(0, 3),
              st.integers(0, 20)),
    # (read, line, first sector, sector count, missing mask, advance)
    st.tuples(st.just("read"), st.integers(0, 5), st.integers(0, 3),
              st.integers(0, 4), st.integers(0, 15), st.integers(0, 20)),
    # (burst, line, distinct sectors in issue order, clock advance,
    # fill latency)
    st.tuples(st.just("burst"), st.integers(0, 5),
              st.lists(st.integers(0, 3), min_size=1, max_size=4,
                       unique=True),
              st.integers(0, 20), st.integers(0, 60)),
), max_size=80)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(entries=st.integers(1, 8), merge_width=st.integers(1, 4),
       steps=_steps)
def test_matches_the_tuple_keyed_reference(entries, merge_width, steps):
    """Generated ``lookup``/``merge_read``/``allocate_burst`` sequences
    at a nondecreasing clock, over 6 lines x 4 sectors: after every step
    the return values, counters, occupancy and in-flight entries
    agree."""
    mshr = MSHRFile(entries, merge_width)
    ref = ReferenceMSHRFile(entries, merge_width)
    now = 0.0
    for step in steps:
        if step[0] == "lookup":
            _, line, sector, advance = step
            now += advance
            got = mshr.lookup(line, sector, now)
            want = ref.lookup((line, sector), now)
        elif step[0] == "read":
            _, line, first, count, missing, advance = step
            now += advance
            last = min(first + count, 4)
            got = mshr.merge_read(line, first, last, missing, now)
            want = _reference_merge_read(ref, line, first, last, missing,
                                         now)
        else:
            _, line, sectors, advance, latency = step
            now += advance
            got = mshr.allocate_burst(line, sectors, now + latency, now)
            want = ref.allocate_burst(line, sectors, now + latency, now)
        assert got == want, step
        assert (mshr.merges, mshr.stall_events, mshr.occupancy) \
            == (ref.merges, ref.stall_events, ref.occupancy), step
        assert _entries(mshr) == _reference_entries(ref), step
