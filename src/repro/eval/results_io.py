"""Result persistence: lossless cell records and the content-addressed
result store.

Two layers:

* **Lossless cell records** (`serialize_run_result` /
  `deserialize_run_result`): a full, reversible JSON encoding of one
  :class:`repro.sim.stats.RunResult`, including the latency histogram
  buckets, so every derived metric of every figure (normalised IPC,
  Fig. 14 bandwidth overhead, Fig. 15 energy, Figs. 10/11 accuracy
  breakdowns, p50/p95/p99 latency) is recomputable from disk.
* **The content-addressed store** (:class:`ResultStore`): completed
  simulation cells keyed by :func:`stable_hash` of their full identity
  (SimConfig + workload + scheme + overrides + scale + code version).
  Re-running a campaign resumes instantly from cached cells; a
  corrupted or truncated entry is *quarantined* (moved aside), never
  fatal.

A campaign's per-experiment values live in its manifest
(:mod:`repro.eval.campaign`), which ``repro diff`` compares.

Units: cycles are simulator core cycles, traffic fields are bytes,
latencies are cycles, ``scale`` is the suite footprint scale factor.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.types import PredictionStats, Scheme, TrafficCounters
from repro.obs.metrics import LogHistogram
from repro.sim.stats import L2Stats, LatencyStats, RunResult

#: Version tag of the lossless cell encoding; bump on breaking change
#: (it participates in the cell hash, so old store entries simply
#: become cache misses instead of deserialization errors).
CELL_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Lossless RunResult encoding (the store's payload format)
# ---------------------------------------------------------------------------

def _histogram_to_dict(h: LogHistogram) -> dict:
    return {
        "name": h.name,
        # Sparse: almost all of the 256 log buckets are empty.
        "counts": {str(i): n for i, n in enumerate(h.counts) if n},
        "count": h.count,
        "total": h.total,
        "min": None if math.isinf(h.min_value) else h.min_value,
        "max": h.max_value,
    }


def _histogram_from_dict(data: dict) -> LogHistogram:
    h = LogHistogram(data.get("name", ""))
    for idx, n in data["counts"].items():
        h.counts[int(idx)] = n
    h.count = data["count"]
    h.total = data["total"]
    h.min_value = math.inf if data["min"] is None else data["min"]
    h.max_value = data["max"]
    return h


def _prediction_to_dict(stats: PredictionStats) -> dict:
    return {f.name: getattr(stats, f.name)
            for f in dataclasses.fields(PredictionStats)}


def serialize_run_result(result: RunResult) -> dict:
    """Encode one :class:`RunResult` as a JSON-safe dict, losslessly.

    Every field — including the streaming latency histogram's bucket
    counts and both detectors' Figs. 10/11 misprediction breakdowns —
    survives the round trip, so :func:`deserialize_run_result` yields
    a result whose derived metrics equal the original's.
    """
    return {
        "cell_format": CELL_FORMAT_VERSION,
        "workload": result.workload,
        "scheme": result.scheme.value,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "dram_utilization": result.dram_utilization,
        "traffic": {
            "data_bytes": result.traffic.data_bytes,
            "counter_bytes": result.traffic.counter_bytes,
            "mac_bytes": result.traffic.mac_bytes,
            "bmt_bytes": result.traffic.bmt_bytes,
            "misprediction_bytes": result.traffic.misprediction_bytes,
        },
        "l2": {
            "accesses": result.l2.accesses,
            "misses": result.l2.misses,
            "writebacks": result.l2.writebacks,
        },
        "latency": {
            "total_cycles": result.latency.total_cycles,
            "count": result.latency.count,
            "max_cycles": result.latency.max_cycles,
            "histogram": _histogram_to_dict(result.latency.histogram),
        },
        "readonly_stats": _prediction_to_dict(result.readonly_stats),
        "streaming_stats": _prediction_to_dict(result.streaming_stats),
        "shared_counter_reads": result.shared_counter_reads,
        "common_counter_hits": result.common_counter_hits,
        "mdc_accesses": result.mdc_accesses,
        "victim_hits": result.victim_hits,
        "victim_insertions": result.victim_insertions,
        "stream_verdicts": result.stream_verdicts,
        "readonly_transitions": result.readonly_transitions,
    }


def deserialize_run_result(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`serialize_run_result`
    output.  Raises ``ValueError`` on a format-version mismatch and
    ``KeyError``/``TypeError`` on truncated records (the store treats
    all three as corruption and quarantines the entry)."""
    if data.get("cell_format") != CELL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported cell format {data.get('cell_format')!r} "
            f"(expected {CELL_FORMAT_VERSION})"
        )
    latency = LatencyStats(
        total_cycles=data["latency"]["total_cycles"],
        count=data["latency"]["count"],
        max_cycles=data["latency"]["max_cycles"],
        histogram=_histogram_from_dict(data["latency"]["histogram"]),
    )
    return RunResult(
        workload=data["workload"],
        scheme=Scheme(data["scheme"]),
        cycles=data["cycles"],
        instructions=data["instructions"],
        traffic=TrafficCounters(**data["traffic"]),
        l2=L2Stats(**data["l2"]),
        dram_utilization=data["dram_utilization"],
        latency=latency,
        readonly_stats=PredictionStats(**data["readonly_stats"]),
        streaming_stats=PredictionStats(**data["streaming_stats"]),
        shared_counter_reads=data["shared_counter_reads"],
        common_counter_hits=data["common_counter_hits"],
        mdc_accesses=data["mdc_accesses"],
        victim_hits=data["victim_hits"],
        victim_insertions=data["victim_insertions"],
        stream_verdicts=data["stream_verdicts"],
        readonly_transitions=data["readonly_transitions"],
    )


# ---------------------------------------------------------------------------
# Stable hashing and code versioning (the store's address format)
# ---------------------------------------------------------------------------

def canonicalize(obj: Any) -> Any:
    """Reduce configs/enums/containers to a deterministic JSON value.

    Dataclasses become ``{"__type__": name, fields...}`` (type name
    included so two configs with identical field values but different
    meaning hash apart), enums become their values, dict keys are
    stringified and sorted by ``json.dumps(sort_keys=True)`` later.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonicalize(getattr(obj, f.name))
        return out
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def stable_hash(obj: Any) -> str:
    """A 40-hex-digit content address, stable across processes and
    Python versions (unlike ``hash()``)."""
    payload = json.dumps(canonicalize(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:40]


_code_version: Optional[str] = None

#: The package whose own ``.py`` sources :func:`code_version` hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def _git_commit() -> str:
    """The commit checked out at the package root ("" without git)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=_PACKAGE_ROOT, capture_output=True, text=True, timeout=5,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def _source_digest() -> str:
    """A digest of the package's ``.py`` sources: paths and contents."""
    digest = hashlib.sha256()
    for name in sorted(path.relative_to(_PACKAGE_ROOT).as_posix()
                       for path in _PACKAGE_ROOT.rglob("*.py")):
        digest.update(name.encode("utf-8") + b"\0")
        digest.update((_PACKAGE_ROOT / name).read_bytes() + b"\0")
    return digest.hexdigest()[:12]


def code_version() -> str:
    """The simulator version folded into every cell address, so a code
    change invalidates stale results rather than serving them.

    The ``REPRO_CODE_VERSION`` environment variable (CI can pin it)
    wins.  Otherwise the version is ``<commit>+<digest>``: the git
    commit of the source tree (the package version without git) as a
    readable prefix, and a digest of the package's own ``.py``
    sources, so an edit that is not committed yet changes it too.
    Resolved once per process.
    """
    global _code_version
    if _code_version is None:
        _code_version = os.environ.get("REPRO_CODE_VERSION") or ""
        if not _code_version:
            import repro

            prefix = _git_commit() or getattr(repro, "__version__",
                                               "unknown")
            _code_version = f"{prefix}+{_source_digest()}"
    return _code_version


# ---------------------------------------------------------------------------
# The content-addressed result store
# ---------------------------------------------------------------------------

class ResultStore:
    """On-disk cache of completed simulation cells, addressed by the
    stable hash of their full identity.

    Layout: ``root/<key[:2]>/<key>.json`` (fan-out keeps directories
    small at suite scale), with unreadable entries moved to
    ``root/quarantine/``.  Writes are atomic (temp file + ``rename``),
    so a killed campaign never leaves a truncated entry behind under
    its final name; if one appears anyway (copied stores, disk
    trouble), :meth:`get` quarantines it and reports a miss instead of
    raising — corruption costs one re-simulation, not the sweep.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- addressing ----------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- reads ---------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The record stored under ``key``, or ``None`` on a miss.

        A present-but-unreadable entry (truncated JSON, wrong key,
        missing payload) is quarantined and reported as a miss.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if not isinstance(data, dict) or data.get("key") != key \
                or "payload" not in data:
            self._quarantine(path)
            return None
        return data

    def contains(self, key: str) -> bool:
        return self._path(key).exists()

    __contains__ = contains

    def keys(self) -> List[str]:
        """Every key currently stored (sorted, for stable listings)."""
        if not self.root.exists():
            return []
        return sorted(
            p.stem
            for shard in self.root.iterdir()
            if shard.is_dir() and shard.name != "quarantine"
            for p in shard.glob("*.json")
        )

    def __len__(self) -> int:
        return len(self.keys())

    # -- writes --------------------------------------------------------

    def put(self, key: str, record: dict) -> Path:
        """Atomically persist ``record`` under ``key``.

        The record is stamped with its own key so a mis-filed copy is
        detectable on read.
        """
        record = dict(record)
        record["key"] = key
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(record, indent=1))
        os.replace(tmp, path)
        return path

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self._path(key)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Drop every entry (quarantine included); returns the count."""
        removed = 0
        if not self.root.exists():
            return 0
        for shard in self.root.iterdir():
            if not shard.is_dir():
                continue
            for p in list(shard.glob("*.json")):
                p.unlink()
                removed += 1
        return removed

    # -- corruption handling -------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside (best effort) so the next campaign
        re-simulates the cell instead of tripping on it again."""
        quarantine = self.root / "quarantine"
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def quarantined(self) -> List[str]:
        """Names of quarantined entries (for campaign reporting)."""
        quarantine = self.root / "quarantine"
        if not quarantine.exists():
            return []
        return sorted(p.name for p in quarantine.glob("*.json"))
