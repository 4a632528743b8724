"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of each simulator layer at class
(or module) level, from outside the program, and folds self time
online: every open span accumulates the durations of the spans that
close inside it, so on close ``self = duration - time its child spans
cover``.  Nothing inside ``src/`` is edited, and no ``Observer`` or
``HostProfiler`` is attached -- both force other code paths (the
legacy core, the materialised MEE emission), so the traced run takes
the same path as an untraced one.

Spans at kernel granularity or coarser are kept in memory as records
``(id, name, start, end, parent, cell, self_s, children)`` and written
out when the run ends.  Per-access spans (L2 range probes, MEE
read-miss / write-back walks, DRAM scheduler service, ledger taps) run
millions of times per pass, so they are folded on close into per-name
totals only; their time still leaves their parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: What the traced run wraps: (module, class or None for a module-level
#: function, attribute, span name, record individually?).  Several
#: attributes may share one span name (direct and materialised forms of
#: one MEE entry point).  Module-level functions are patched in the
#: namespace their callers resolve them from.
TARGETS: List[Tuple[str, Optional[str], str, str, bool]] = [
    ("repro.sim.runner", None, "build_workload", "workloads.build", True),
    ("repro.workloads.compose", None, "build_workload", "workloads.build",
     True),
    ("repro.sim.runner", "Runner", "calibration", "runner.calibration", True),
    ("repro.sim.runner", "Runner", "run", "runner.run", True),
    ("repro.sim.runner", "Runner", "baseline", "runner.baseline", True),
    ("repro.sim.profiling", "TraceProfile", "ingest", "profiling.ingest",
     True),
    ("repro.sim.gpu", "GPUSimulator", "__init__", "gpu.init", True),
    ("repro.sim.gpu", "GPUSimulator", "run", "gpu.run", True),
    ("repro.sim.pipeline", "MemoryPipeline", "translate_batch",
     "pipeline.translate", True),
    ("repro.sim.pipeline", "MemoryPipeline", "run_batch",
     "pipeline.run_batch", True),
    ("repro.sim.pipeline", "MemoryPipeline", "final_flush",
     "pipeline.final_flush", True),
    ("repro.sim.pipeline", "MemoryPipeline", "writeback",
     "pipeline.writeback", False),
    ("repro.sim.pipeline", "MemoryPipeline", "access", "pipeline.access",
     False),
    ("repro.sim.pipeline", "MemoryPipeline", "schedule", "pipeline.schedule",
     False),
    ("repro.memory.l2", "L2Bank", "access_data_range", "l2.range", False),
    ("repro.core.mee", "MemoryEncryptionEngine", "on_read_miss_direct",
     "mee.read_miss", False),
    ("repro.core.mee", "MemoryEncryptionEngine", "on_read_miss",
     "mee.read_miss", False),
    ("repro.core.mee", "MemoryEncryptionEngine", "on_writeback_direct",
     "mee.writeback", False),
    ("repro.core.mee", "MemoryEncryptionEngine", "on_writeback",
     "mee.writeback", False),
    ("repro.core.mee", "MemoryEncryptionEngine", "on_kernel_boundary",
     "mee.kernel_boundary", True),
    ("repro.core.mee", "MemoryEncryptionEngine", "on_host_copy",
     "mee.host_copy", True),
    ("repro.core.mee", "MemoryEncryptionEngine", "flush_direct",
     "mee.flush", True),
    ("repro.core.mee", "MemoryEncryptionEngine", "flush", "mee.flush", True),
    ("repro.memory.dram", "DRAMChannel", "service", "dram.service", False),
    *[("repro.obs.decisions", "DecisionLedger", tap, "ledger", False)
      for tap in ("ro_mark", "ro_clear", "ro_transition", "stream_verdict",
                  "stream_preset", "ctr_overflow", "mac_recheck",
                  "learned_promote", "learned_demote", "learned_verdict",
                  "arm_select", "summary")],
    ("repro.eval.results_io", "ResultStore", "put", "store.put", True),
    ("repro.eval.campaign", None, "serialize_run_result",
     "results.serialize", True),
]


class Tracer:
    """Nested host-time spans with an online self-time fold.

    ``clock`` is injectable so tests can drive exact timings.
    ``cell`` labels every span recorded while it is set; once installed,
    each ``Runner.run`` call sets it to ``scheduler/workload/scheme``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.cell: Optional[str] = None
        #: Recorded spans: (id, name, start, end, parent id or -1, cell,
        #: self seconds, direct child count).
        self.spans: List[tuple] = []
        #: name -> [calls, total seconds, self seconds] over every span,
        #: recorded or folded.
        self.totals: Dict[str, List[float]] = {}
        # Open frames: [name, record, start, child seconds, id, children].
        self._stack: List[list] = []
        self._open_ids: List[int] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, record: bool = True) -> list:
        span_id = -1
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, record, self.clock(), 0.0, span_id, 0]
        self._stack.append(frame)
        if record:
            self._open_ids.append(span_id)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        name, record, start, child_s, span_id, children = frame
        duration = end - start
        self_s = duration - child_s
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent[5] += 1
        total = self.totals.get(name)
        if total is None:
            self.totals[name] = [1, duration, self_s]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += self_s
        if record:
            self._open_ids.pop()
            parent_id = self._open_ids[-1] if self._open_ids else -1
            self.spans.append((span_id, name, start, end, parent_id,
                               self.cell, self_s, children))

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def spans_named(self, name: str) -> List[tuple]:
        return [span for span in self.spans if span[1] == name]

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, record: bool = True,
             on_enter: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until
        :meth:`unwrap_all`.  ``on_enter(*args)`` runs before the span
        opens (used to label cells)."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args)
            frame = tracer.open(name, record)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(frame)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry in :data:`TARGETS`."""
        for module_name, cls_name, attr, name, record in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            hook = (self._label_cell if (cls_name, attr) == ("Runner", "run")
                    else None)
            self.wrap(owner, attr, name, record, on_enter=hook)

    def _label_cell(self, runner, name, scheme, *_args) -> None:
        scheme = getattr(scheme, "value", scheme)
        self.cell = f"{runner.config.gpu.dram_scheduler}/{name}/{scheme}"

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------

    def write(self, path: Path) -> None:
        fields = ("id", "name", "start", "end", "parent", "cell", "self_s",
                  "children")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "span_fields": fields,
            "spans": self.spans,
            "totals": {name: {"calls": int(calls), "total_s": total,
                              "self_s": self_s}
                       for name, (calls, total, self_s)
                       in sorted(self.totals.items())},
        }))
