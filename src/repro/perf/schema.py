"""Schema validation for ``BENCH_*.json`` documents.

Hand-rolled (no third-party ``jsonschema`` dependency): the checks
cover structure, types and internal consistency — enough for CI to
reject a malformed or truncated baseline before it silently poisons a
``repro bench --compare`` gate.

Run directly to validate files::

    python -m repro.perf.schema BENCH_abc123.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Union

#: Version of the emitted benchmark document.
BENCH_FORMAT = 1

_ENVIRONMENT_KEYS = {"git_sha": str, "python": str, "platform": str,
                     "cpu_count": int}
_CONFIG_KEYS = {"smoke": bool, "repeats": int, "warmup": int, "rounds": int,
                "macro_scale": (int, float)}
_STAT_KEYS = ("min", "max", "median", "mad", "mean")
_KINDS = ("micro", "macro")


class BenchSchemaError(ValueError):
    """A document does not conform to the BENCH schema."""


def _fail(path: str, message: str) -> None:
    raise BenchSchemaError(f"{path}: {message}")


def _require_mapping(doc: dict, key: str) -> dict:
    value = doc.get(key)
    if not isinstance(value, dict):
        _fail(key, f"must be an object, got {type(value).__name__}")
    return value


def validate_bench(doc: dict) -> dict:
    """Validate one benchmark document; returns it unchanged.

    Raises :class:`BenchSchemaError` on the first violation.
    """
    if not isinstance(doc, dict):
        raise BenchSchemaError("document must be a JSON object")
    if doc.get("bench_format") != BENCH_FORMAT:
        _fail("bench_format", f"must be {BENCH_FORMAT}, "
              f"got {doc.get('bench_format')!r}")

    environment = _require_mapping(doc, "environment")
    for key, expected in _ENVIRONMENT_KEYS.items():
        value = environment.get(key)
        if not isinstance(value, expected) \
                or (expected is int and isinstance(value, bool)):
            _fail(f"environment.{key}",
                  f"must be {expected.__name__}, got {value!r}")
    dirty = environment.get("git_dirty")
    if dirty is not None and not isinstance(dirty, bool):
        # Optional: documents older than the field omit it.
        _fail("environment.git_dirty", f"must be a bool, got {dirty!r}")

    config = _require_mapping(doc, "config")
    for key, expected_types in _CONFIG_KEYS.items():
        value = config.get(key)
        if not isinstance(value, expected_types) \
                or isinstance(value, bool) != (expected_types is bool):
            _fail(f"config.{key}", f"bad value {value!r}")
    core = config.get("core")
    if core is not None and not isinstance(core, str):
        _fail("config.core", f"bad value {core!r}")
    if config["repeats"] < 1:
        _fail("config.repeats", "must be >= 1")
    if config["warmup"] < 0:
        _fail("config.warmup", "must be >= 0")

    benchmarks = _require_mapping(doc, "benchmarks")
    if not benchmarks:
        _fail("benchmarks", "must not be empty")
    for name, entry in benchmarks.items():
        _validate_entry(name, entry, config["repeats"])
    return doc


def _validate_entry(name: str, entry: object, repeats: int) -> None:
    path = f"benchmarks.{name}"
    if not isinstance(entry, dict):
        _fail(path, "must be an object")
    assert isinstance(entry, dict)
    if entry.get("kind") not in _KINDS:
        _fail(f"{path}.kind", f"must be one of {_KINDS}, "
              f"got {entry.get('kind')!r}")
    if not isinstance(entry.get("unit"), str) or not entry["unit"]:
        _fail(f"{path}.unit", "must be a non-empty string")
    units = entry.get("units_per_op")
    if not isinstance(units, int) or isinstance(units, bool) or units < 1:
        _fail(f"{path}.units_per_op", f"must be a positive int, got {units!r}")

    samples = entry.get("samples")
    if not isinstance(samples, list) or not samples:
        _fail(f"{path}.samples", "must be a non-empty list")
    assert isinstance(samples, list)
    if len(samples) != repeats:
        _fail(f"{path}.samples",
              f"expected {repeats} samples (config.repeats), "
              f"got {len(samples)}")
    for i, sample in enumerate(samples):
        if not isinstance(sample, (int, float)) or isinstance(sample, bool) \
                or sample <= 0:
            _fail(f"{path}.samples[{i}]",
                  f"must be a positive number, got {sample!r}")

    stats = entry.get("stats")
    if not isinstance(stats, dict):
        _fail(f"{path}.stats", "must be an object")
    assert isinstance(stats, dict)
    for key in _STAT_KEYS:
        value = stats.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            _fail(f"{path}.stats.{key}", f"must be a number, got {value!r}")
    if stats["mad"] < 0:
        _fail(f"{path}.stats.mad", "must be non-negative")
    if not stats["min"] <= stats["median"] <= stats["max"]:
        _fail(f"{path}.stats",
              "min <= median <= max violated: "
              f"{stats['min']} / {stats['median']} / {stats['max']}")
    if abs(stats["min"] - min(samples)) > 1e-9 * max(stats["min"], 1.0):
        _fail(f"{path}.stats.min", "does not match samples")


def validate_file(path: Union[str, Path]) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"{path}: not valid JSON: {exc}") from exc
    return validate_bench(doc)


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: python -m repro.perf.schema BENCH_*.json",
              file=sys.stderr)
        return 2
    for path in argv:
        try:
            doc = validate_file(path)
        except (OSError, BenchSchemaError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            return 1
        print(f"ok {path}: {len(doc['benchmarks'])} benchmarks, "
              f"code {doc['environment']['git_sha'] or '?'}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
