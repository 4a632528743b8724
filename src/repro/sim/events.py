"""The SM frontend's issue window: the event queue of the run loop.

GPUs hide memory latency with massive memory-level parallelism, but
the parallelism is finite (MSHRs, warps in flight).  The frontend
models it as a sliding window: an access may not issue until (a) its
program-order issue slot ``seq * gap`` arrives — the compute-rate
calibration — and (b) a window slot is free.  Added memory latency
(e.g. a decrypt-blocking counter fetch) therefore throttles issue
exactly the way Little's law says it should.

The simulator's timing model is *analytic*: every component answers
"when does this finish?" with arithmetic, so there is no cycle loop to
tick.  The only genuinely sequential state is that bounded window of
outstanding completions — and the window is exactly a min-heap of
completion times, i.e. an event queue.  When the window is full, the
clock jumps directly to the next completion event (``heappop``)
instead of ever visiting the idle cycles in between; that is the
event-driven "idle-cycle skipping" of the run loop.

:class:`CompletionWindow` holds that queue with **public** slots so the
fused batch loop in :meth:`repro.sim.pipeline.MemoryPipeline.run_batch`
can hoist them into locals, run a whole kernel batch, and write the
state back.  Its method forms (:meth:`issue` / :meth:`complete` /
:meth:`drain`) drive the same machine one access at a time — same
float operations in the same order — which is how the per-access
reference drive of the tests reproduces the batch loop bit for bit.
"""

from __future__ import annotations

import heapq
from typing import List


class CompletionWindow:
    """Bounded window of outstanding completions (the event queue).

    Invariants:

    * access ``i`` may not issue before its program-order slot
      ``i * gap`` (the compute-rate floor);
    * with ``max_inflight`` completions outstanding, issue waits for
      the *earliest* completion event — ``freed = heappop(inflight)``
      — and stalls only by ``freed - ready`` when that event lies in
      the future.  A completion landing exactly on the ready slot
      (``freed == ready``) frees the slot just in time: zero stall.
    """

    __slots__ = ("max_inflight", "gap", "inflight", "seq", "stall_cycles",
                 "last_issue", "last_completion")

    def __init__(self, max_inflight: int, gap: float) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if gap <= 0:
            raise ValueError("gap must be positive")
        self.max_inflight = max_inflight
        self.gap = gap
        #: Outstanding completion times, a ``heapq`` min-heap: the
        #: event queue the clock jumps along when the window is full.
        self.inflight: List[float] = []
        self.seq = 0
        self.stall_cycles = 0.0
        self.last_issue = 0.0
        self.last_completion = 0.0

    def issue(self) -> float:
        """Cycle at which the next access issues."""
        issue = self.seq * self.gap
        self.seq += 1
        if len(self.inflight) >= self.max_inflight:
            freed = heapq.heappop(self.inflight)
            if freed > issue:
                self.stall_cycles += freed - issue
                issue = freed
        self.last_issue = issue
        return issue

    def complete(self, completion: float) -> None:
        """Register the completion event of the just-issued access."""
        heapq.heappush(self.inflight, completion)
        if completion > self.last_completion:
            self.last_completion = completion

    def drain(self) -> float:
        """All outstanding work finished."""
        return max(self.last_completion, self.last_issue)
