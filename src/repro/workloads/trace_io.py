"""Trace serialisation: save and reload workloads, in two formats.

Lets users snapshot a generated (or hand-built) workload, inspect or
edit it, and replay it byte-identically — and lets external tools feed
their own address traces into the simulator without touching the
generator API.

Two on-disk formats:

* **v1** (``format_version: 1``) — one JSON document with compact
  parallel arrays per kernel.  Human-editable; the whole trace must
  fit in memory twice over (text + objects).
* **v2** (``format_version: 2``) — gzip-compressed JSONL, streamed:
  a header line (buffers + workload metadata), then per kernel a
  ``kernel`` line followed by chunked ``accesses`` lines, then an
  ``end`` line carrying totals so truncation is detectable.  Written
  and read incrementally — :func:`iter_kernels` replays traces larger
  than memory one kernel at a time.

:func:`load_workload` sniffs the format (gzip magic bytes), so readers
never need to know which version wrote a file.  Kernels carry an
explicit ``seq`` ordinal in both formats and are re-sorted by it on
load: launch order is simulation-significant (detector state persists
across kernels), so replay stays byte-identical even if an external
tool re-orders the kernel records.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.common.types import MemorySpace
from repro.workloads.base import Buffer, HostEvent, Kernel, Trace, Workload

#: The version this build writes by default (the streaming format).
FORMAT_VERSION = 2
#: The legacy single-document JSON format (still written on request
#: and always readable).
V1_FORMAT_VERSION = 1
SUPPORTED_VERSIONS = (V1_FORMAT_VERSION, FORMAT_VERSION)

#: Accesses per ``accesses`` line in the v2 stream (bounds the memory
#: high-water mark of both writer and reader).
CHUNK_ACCESSES = 8192

_GZIP_MAGIC = b"\x1f\x8b"


class TraceFormatError(ValueError):
    """A trace file failed format validation (bad version, truncated
    stream, ragged arrays, ...).  Subclasses :class:`ValueError` so
    pre-v2 callers keep working."""


def _check_version(version: Any, where: str) -> int:
    if version is None:
        raise TraceFormatError(
            f"{where}: missing format_version "
            f"(not a repro trace file? this build reads versions "
            f"{list(SUPPORTED_VERSIONS)})")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(
            f"{where}: unsupported trace format_version {version!r}; "
            f"this build reads {list(SUPPORTED_VERSIONS)} "
            f"(written by a different repro version?)")
    return int(version)


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _buffer_to_dict(b: Buffer) -> dict:
    return {"name": b.name, "address": b.address, "size": b.size,
            "space": b.space.value, "host_init": b.host_init}


def _buffer_from_dict(b: dict) -> Buffer:
    return Buffer(name=b["name"], address=b["address"], size=b["size"],
                  space=MemorySpace(b["space"]), host_init=b["host_init"])


def _events_to_dicts(events: List[HostEvent]) -> List[dict]:
    return [{"kind": e.kind, "start": e.start, "size": e.size}
            for e in events]


def _events_from_dicts(events: List[dict]) -> List[HostEvent]:
    return [HostEvent(e["kind"], e["start"], e["size"]) for e in events]


def _accesses_from_arrays(name: str, addresses: List[int],
                          writes: List[int], sectors: List[int]) -> Trace:
    n = len(addresses)
    if len(writes) != n or len(sectors) != n:
        raise TraceFormatError(f"kernel {name!r}: ragged trace arrays")
    return Trace(zip(addresses, map(bool, writes), sectors))


def _arrays_of(trace: Trace) -> dict:
    """``trace``'s parallel ``addresses``/``writes``/``sectors`` arrays,
    as both formats store them."""
    return {"addresses": trace.addresses.tolist(),
            "writes": trace.writes.tolist(),
            "sectors": trace.sectors.tolist()}


def _workload_from_parts(meta: dict, buffers: List[Buffer],
                         kernels: List[Kernel]) -> Workload:
    workload = Workload(
        name=meta["name"],
        kernels=kernels,
        buffers=buffers,
        bandwidth_utilization=meta["bandwidth_utilization"],
        description=meta.get("description", ""),
        instructions_per_access=meta.get("instructions_per_access", 12),
    )
    workload.validate()
    return workload


# ---------------------------------------------------------------------------
# v1: one JSON document
# ---------------------------------------------------------------------------

def workload_to_dict(workload: Workload) -> dict:
    """A JSON-serialisable snapshot of a workload (v1 format)."""
    return {
        "format_version": V1_FORMAT_VERSION,
        "name": workload.name,
        "description": workload.description,
        "bandwidth_utilization": workload.bandwidth_utilization,
        "instructions_per_access": workload.instructions_per_access,
        "buffers": [_buffer_to_dict(b) for b in workload.buffers],
        "kernels": [
            {
                "seq": seq,
                "name": k.name,
                "host_events": _events_to_dicts(k.host_events),
                # Compact parallel arrays keep large traces small.
                **_arrays_of(k.accesses),
            }
            for seq, k in enumerate(workload.kernels)
        ],
    }


def workload_from_dict(data: dict) -> Workload:
    _check_version(data.get("format_version"), "trace document")
    buffers = [_buffer_from_dict(b) for b in data["buffers"]]
    # Launch order is simulation-significant: honour the explicit seq
    # ordinal when present (pre-seq v1 files fall back to list order).
    records = sorted(
        enumerate(data["kernels"]),
        key=lambda pair: (pair[1].get("seq", pair[0]), pair[0]),
    )
    kernels = []
    for _, k in records:
        kernels.append(Kernel(
            k["name"],
            _accesses_from_arrays(k["name"], k["addresses"], k["writes"],
                                  k["sectors"]),
            _events_from_dicts(k["host_events"]),
        ))
    return _workload_from_parts(data, buffers, kernels)


# ---------------------------------------------------------------------------
# v2: streamed gzip JSONL
# ---------------------------------------------------------------------------

def _write_stream(workload: Workload, stream: IO[str]) -> None:
    def emit(obj: dict) -> None:
        stream.write(json.dumps(obj, separators=(",", ":")) + "\n")

    emit({
        "format_version": FORMAT_VERSION,
        "type": "header",
        "name": workload.name,
        "description": workload.description,
        "bandwidth_utilization": workload.bandwidth_utilization,
        "instructions_per_access": workload.instructions_per_access,
        "buffers": [_buffer_to_dict(b) for b in workload.buffers],
    })
    total = 0
    for seq, kernel in enumerate(workload.kernels):
        emit({"type": "kernel", "seq": seq, "name": kernel.name,
              "accesses": len(kernel.accesses),
              "host_events": _events_to_dicts(kernel.host_events)})
        for lo in range(0, len(kernel.accesses), CHUNK_ACCESSES):
            emit({"type": "accesses", "seq": seq,
                  **_arrays_of(kernel.accesses[lo:lo + CHUNK_ACCESSES])})
        total += len(kernel.accesses)
    emit({"type": "end", "kernels": len(workload.kernels),
          "total_accesses": total})


def _open_stream(path: Path) -> Tuple[IO[str], bool]:
    """Open ``path`` for text reading; returns (handle, is_gzip)."""
    raw = open(path, "rb")
    magic = raw.read(2)
    raw.seek(0)
    if magic == _GZIP_MAGIC:
        return io.TextIOWrapper(gzip.GzipFile(fileobj=raw),
                                encoding="utf-8"), True
    return io.TextIOWrapper(raw, encoding="utf-8"), False


def _gzip_lines(stream: IO[str], path: Path) -> Iterator[str]:
    """Iterate a gzip text stream, turning a premature end of the
    compressed data (EOFError from the gzip layer) into a
    :class:`TraceFormatError` instead of a raw traceback."""
    try:
        yield from stream
    except EOFError as exc:
        raise TraceFormatError(
            f"{path}: truncated gzip stream: {exc}") from exc


def read_header(path: Union[str, Path]) -> dict:
    """The v2 header line (workload metadata + buffers) without
    reading the access stream; raises on v1 files."""
    path = Path(path)
    stream, is_gzip = _open_stream(path)
    with stream:
        if not is_gzip:
            raise TraceFormatError(
                f"{path}: not a v2 stream (no gzip magic); v1 documents "
                f"have no separable header — use load_workload")
        try:
            line = stream.readline()
        except EOFError as exc:
            raise TraceFormatError(
                f"{path}: truncated gzip stream: {exc}") from exc
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: bad header line: {exc}") from exc
        _check_version(header.get("format_version"), str(path))
        if header.get("type") != "header":
            raise TraceFormatError(f"{path}: first record is "
                                   f"{header.get('type')!r}, not 'header'")
        return header


def iter_kernels(path: Union[str, Path]) -> Iterator[Kernel]:
    """Stream a v2 trace one kernel at a time (constant memory in the
    trace length); validates chunk continuity and the end-line totals,
    so a truncated file raises instead of replaying short."""
    path = Path(path)
    stream, is_gzip = _open_stream(path)
    if not is_gzip:
        # v1 fallback: parse the document, yield in (sorted) order.
        with stream:
            data = json.loads(stream.read())
        for kernel in workload_from_dict(data).kernels:
            yield kernel
        return
    with stream:
        read_header(path)  # cheap re-validation of line 1
        stream.readline()  # skip the header we just validated
        current: Optional[dict] = None
        accesses = Trace()
        kernels_seen = 0
        total = 0
        finished = False
        expected_seq = 0

        def flush() -> Kernel:
            declared = current.get("accesses")
            if declared is not None and declared != len(accesses):
                raise TraceFormatError(
                    f"{path}: kernel {current['name']!r} declares "
                    f"{declared} accesses, stream carries {len(accesses)}")
            return Kernel(current["name"], accesses,
                          _events_from_dicts(current["host_events"]))

        for line_no, line in enumerate(_gzip_lines(stream, path), 2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"{path}:{line_no}: bad JSON: {exc}") from exc
            kind = record.get("type")
            if kind == "kernel":
                if current is not None:
                    yield flush()
                if record.get("seq") != expected_seq:
                    raise TraceFormatError(
                        f"{path}:{line_no}: kernel seq "
                        f"{record.get('seq')!r}, expected {expected_seq} "
                        f"(reordered or truncated stream)")
                expected_seq += 1
                current = record
                accesses = Trace()
                kernels_seen += 1
            elif kind == "accesses":
                if current is None or record.get("seq") != current["seq"]:
                    raise TraceFormatError(
                        f"{path}:{line_no}: accesses record outside its "
                        f"kernel (seq {record.get('seq')!r})")
                chunk = _accesses_from_arrays(
                    current["name"], record["addresses"], record["writes"],
                    record["sectors"])
                accesses.extend(chunk)
                total += len(chunk)
            elif kind == "end":
                if current is not None:
                    yield flush()
                    current = None
                if (record.get("kernels") != kernels_seen
                        or record.get("total_accesses") != total):
                    raise TraceFormatError(
                        f"{path}: end record declares "
                        f"{record.get('kernels')} kernels / "
                        f"{record.get('total_accesses')} accesses, stream "
                        f"carries {kernels_seen} / {total}")
                finished = True
            else:
                raise TraceFormatError(
                    f"{path}:{line_no}: unknown record type {kind!r}")
        if not finished:
            raise TraceFormatError(
                f"{path}: truncated v2 stream (no end record)")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def save_workload(workload: Workload, path: Union[str, Path],
                  version: Optional[int] = None) -> None:
    """Write ``workload`` to ``path``.

    ``version`` picks the format explicitly; by default ``.gz`` paths
    get the v2 stream and anything else the v1 JSON document, so
    existing ``save_workload(w, "trace.json")`` callers are untouched.
    """
    path = Path(path)
    if version is None:
        version = (FORMAT_VERSION if path.name.endswith(".gz")
                   else V1_FORMAT_VERSION)
    if version == V1_FORMAT_VERSION:
        path.write_text(json.dumps(workload_to_dict(workload)))
    elif version == FORMAT_VERSION:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=6) as f:
            _write_stream(workload, f)
    else:
        raise TraceFormatError(
            f"cannot write trace format_version {version!r}; "
            f"this build writes {list(SUPPORTED_VERSIONS)}")


def load_workload(path: Union[str, Path]) -> Workload:
    """Load a trace of either format (sniffed, not suffix-guessed)."""
    path = Path(path)
    stream, is_gzip = _open_stream(path)
    if not is_gzip:
        with stream:
            text = stream.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}: neither a gzip v2 stream nor a JSON "
                f"document: {exc}") from exc
        return workload_from_dict(data)
    stream.close()
    header = read_header(path)
    buffers = [_buffer_from_dict(b) for b in header["buffers"]]
    kernels = list(iter_kernels(path))
    return _workload_from_parts(header, buffers, kernels)


def trace_info(path: Union[str, Path]) -> Dict[str, Any]:
    """Cheap metadata about a trace file: format version, name,
    kernel/access/buffer counts (streams v2 without materialising)."""
    path = Path(path)
    stream, is_gzip = _open_stream(path)
    stream.close()
    if is_gzip:
        header = read_header(path)
        kernels = accesses = 0
        for kernel in iter_kernels(path):
            kernels += 1
            accesses += len(kernel.accesses)
        return {"format_version": FORMAT_VERSION, "name": header["name"],
                "buffers": len(header["buffers"]), "kernels": kernels,
                "accesses": accesses}
    workload = load_workload(path)
    return {"format_version": V1_FORMAT_VERSION, "name": workload.name,
            "buffers": len(workload.buffers),
            "kernels": len(workload.kernels),
            "accesses": workload.total_accesses}
