"""Output checks, result digests and the paper-fidelity reference.

A cell fails if it raised, timed out, exhausted its retries, or fails
the check that applies to it: byte equality with the golden oracle for
golden cells, the invariants of :func:`invariant_errors` for every
other cell.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.eval.results_io import serialize_run_result

#: The paper's Fig. 12 suite-average performance overheads, in percent
#: (HPCA 2022, Fig. 12 and abstract), as tabulated in EXPERIMENTS.md,
#: "Headline (Fig. 12 / paper abstract)", column "paper".
PAPER_FIG12_OVERHEAD_PCT: Dict[str, float] = {
    "naive": 53.9,
    "common_ctr": 49.4,
    "pssm": 18.6,
    "shm": 8.09,
    "shm_upper_bound": 6.76,
}

#: Upper limit on normalised IPC: a protected run may beat the
#: unprotected baseline only by scheduling noise.
MAX_NORMALIZED_IPC = 1.05


def fig12_err_pp(series: Mapping[str, Mapping[str, float]]) -> float:
    """Mean over the Fig. 12 schemes of |measured suite-average
    overhead - paper average|, in percentage points.

    ``series`` maps scheme -> {workload -> normalised IPC}, the shape
    of the ``fig12`` experiment's aggregate.  Every Fig. 12 scheme must
    be present.
    """
    errors = []
    for scheme, paper_pct in PAPER_FIG12_OVERHEAD_PCT.items():
        values = list(series[scheme].values())
        if not values:
            raise ValueError(f"no cells for Fig. 12 scheme {scheme!r}")
        measured_pct = 100.0 * (1.0 - sum(values) / len(values))
        errors.append(abs(measured_pct - paper_pct))
    return sum(errors) / len(errors)


def invariant_errors(result, baseline) -> List[str]:
    """What is wrong with one simulated cell (empty when it is sound)."""
    errors = []
    if not result.cycles > 0:
        errors.append(f"cycles {result.cycles!r} not positive")
    else:
        nipc = result.normalized_ipc(baseline)
        if not (math.isfinite(nipc) and 0.0 < nipc <= MAX_NORMALIZED_IPC):
            errors.append(f"normalised IPC {nipc!r} outside "
                          f"(0, {MAX_NORMALIZED_IPC}]")
    traffic = serialize_run_result(result)["traffic"]
    per_kind = (traffic["counter_bytes"] + traffic["mac_bytes"]
                + traffic["bmt_bytes"] + traffic["misprediction_bytes"])
    if per_kind != result.traffic.metadata_bytes:
        errors.append(f"per-kind metadata bytes {per_kind} != total "
                      f"{result.traffic.metadata_bytes}")
    if traffic["data_bytes"] + per_kind != result.traffic.total_bytes:
        errors.append("data + metadata bytes != total bytes")
    return errors


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_document(result, baseline, decisions: Optional[dict]) -> str:
    """One cell's canonical serialised output."""
    return canonical({
        "result": serialize_run_result(result) if result else None,
        "baseline": serialize_run_result(baseline) if baseline else None,
        "decisions": decisions,
    })


def digest(documents: Iterable[tuple]) -> str:
    """sha256 over ``(key, canonical document)`` pairs in key order."""
    h = hashlib.sha256()
    for key, document in sorted(documents):
        h.update(key.encode())
        h.update(b"\0")
        h.update(document.encode())
        h.update(b"\n")
    return h.hexdigest()
