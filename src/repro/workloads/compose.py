"""The composable workload language: declarative suites over pattern
primitives.

A *suite spec* is a plain JSON/TOML-serialisable dict (``suite_format:
1``) naming buffers, phases and pattern steps; :func:`build_workload`
lowers it onto the existing :class:`repro.workloads.base.Workload` /
:class:`~repro.workloads.base.Kernel` model, so every scheme, policy
stack and figure driver runs composed suites unchanged.  The
:class:`Composer` builder API produces the same spec programmatically
— ``Composer(...).build()`` and ``build_workload(composer.to_spec())``
are definitionally identical (the builder lowers *through* its spec).

Semantics:

* **Phases** are the composition unit: each phase lowers to one kernel
  launch, and a kernel boundary is a *barrier* — the simulator drains
  all in-flight requests before the next phase issues.  A phase with
  ``barrier: false`` is a pure *phase marker*: its composed accesses
  are appended to the previous kernel so the stream changes character
  mid-kernel with no drain (the detector-thrash case).
* **Steps** inside a phase model concurrently resident warps: with
  ``compose: "interleave"`` (default) they merge probabilistically by
  remaining length, ``"chunked"`` merges in 16-access bursts, and
  ``"concat"`` runs them back to back.
* **Timestamps** are logical issue slots.  Within one phase the
  composed order *is* the timestamp order; the multi-tenant model
  (:mod:`repro.workloads.multitenant`) makes them explicit, stamping
  every access with an arrival-process time before the global merge.
* **Determinism**: all randomness flows from one ``random.Random``
  seeded by the spec's ``seed`` (default: CRC-32 of the suite name,
  the :class:`~repro.workloads.base.WorkloadBuilder` idiom), so a spec
  builds the same byte-identical trace in every process regardless of
  ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.types import MemorySpace
from repro.workloads import patterns as pat
from repro.workloads.base import Buffer, Workload, WorkloadBuilder

#: Version of the suite-spec schema (validated on load).
SUITE_FORMAT = 1

KB = 1 << 10
MB = 1 << 20

_SIZE_UNITS = {"": 1, "B": 1, "KB": KB, "MB": MB, "GB": 1 << 30}


class SpecError(ValueError):
    """A suite spec failed validation (bad format, unknown name, ...)."""


def parse_size(value: Union[int, float, str]) -> int:
    """``"1.5MB"`` / ``"192KB"`` / ``4096`` -> bytes."""
    if isinstance(value, (int, float)):
        return int(value)
    text = value.strip().upper().replace(" ", "")
    for unit in ("GB", "MB", "KB", "B"):
        if text.endswith(unit):
            try:
                return int(float(text[: -len(unit)]) * _SIZE_UNITS[unit])
            except ValueError:
                break
    try:
        return int(float(text))
    except ValueError:
        raise SpecError(f"unparseable size {value!r} "
                        f"(use bytes or e.g. '1.5MB', '192KB')") from None


# ---------------------------------------------------------------------------
# The primitive registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Primitive:
    """One registered access-pattern primitive.

    ``generate(rng, base, size, **params)`` returns the access list;
    ``params`` documents the accepted step keys and their defaults,
    and ``scaled`` names the params multiplied by the build scale.
    """

    name: str
    summary: str
    params: Dict[str, Any]
    generate: Callable[..., List[pat.Access]]
    scaled: Tuple[str, ...] = ("count",)


def _g_sequential(rng: random.Random, base: int, size: int, *,
                  passes: int = 1, write: bool = False,
                  stride: Optional[int] = None) -> List[pat.Access]:
    if write:
        if stride is not None:
            raise SpecError("sequential: stride only applies to reads")
        return pat.stream_write(base, size, passes)
    return pat.stream_read(base, size, passes, stride or pat.LINE)


def _g_random(rng: random.Random, base: int, size: int, *,
              count: int = 1024, write: bool = False) -> List[pat.Access]:
    if write:
        return pat.random_write(rng, base, size, count)
    return pat.random_read(rng, base, size, count)


def _g_stride(rng: random.Random, base: int, size: int, *,
              stride: int = 4 * KB, count: int = 1024,
              write: bool = False) -> List[pat.Access]:
    out = pat.strided_read(base, size, stride, count)
    if write:
        out = [(addr, True, n) for addr, _, n in out]
    return out


def _g_snake(rng: random.Random, base: int, size: int, *,
             passes: int = 2, write: bool = False,
             stride: Optional[int] = None) -> List[pat.Access]:
    return pat.snake(base, size, passes, write, stride or pat.LINE)


def _g_zipfian(rng: random.Random, base: int, size: int, *,
               count: int = 1024, alpha: float = 0.9,
               write: bool = False) -> List[pat.Access]:
    return pat.zipfian(rng, base, size, count, alpha, write)


def _g_hotspot(rng: random.Random, base: int, size: int, *,
               count: int = 1024, hot_bytes: int = 16 * KB) -> List[pat.Access]:
    return pat.hotspot_read(rng, base, size, count, hot_bytes)


def _g_gather(rng: random.Random, base: int, size: int, *,
              count: int = 1024, locality: float = 0.0) -> List[pat.Access]:
    return pat.gather_read(rng, base, size, count, locality)


#: name -> primitive; what ``repro workloads`` lists and step
#: ``pattern`` keys resolve against.
PRIMITIVES: Dict[str, Primitive] = {
    p.name: p for p in [
        Primitive("sequential",
                  "line-grain streaming sweep (reads or writes)",
                  {"passes": 1, "write": False, "stride": None},
                  _g_sequential, scaled=()),
        Primitive("random",
                  "uniform random sector-grain accesses",
                  {"count": 1024, "write": False}, _g_random),
        Primitive("stride",
                  "fixed-stride sector-grain walk, wrapping at the end",
                  {"stride": 4 * KB, "count": 1024, "write": False},
                  _g_stride),
        Primitive("snake",
                  "boustrophedon sweep: alternate forward/backward passes",
                  {"passes": 2, "write": False, "stride": None},
                  _g_snake, scaled=()),
        Primitive("zipfian",
                  "power-law sector accesses (hot head, random tail)",
                  {"count": 1024, "alpha": 0.9, "write": False}, _g_zipfian),
        Primitive("hotspot",
                  "uniform random reads confined to a hot subset",
                  {"count": 1024, "hot_bytes": 16 * KB}, _g_hotspot),
        Primitive("gather",
                  "pointer-chase reads with optional spatial locality",
                  {"count": 1024, "locality": 0.0}, _g_gather),
    ]
}

COMPOSE_MODES = ("interleave", "chunked", "concat")


# ---------------------------------------------------------------------------
# Spec validation and lowering
# ---------------------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def validate_spec(spec: Dict[str, Any]) -> None:
    """Structural validation with actionable errors (no generation)."""
    _require(isinstance(spec, dict), "suite spec must be a JSON object")
    version = spec.get("suite_format")
    _require(version == SUITE_FORMAT,
             f"unsupported suite_format {version!r} "
             f"(this build reads suite_format {SUITE_FORMAT})")
    _require(bool(spec.get("name")), "suite spec needs a 'name'")
    util = spec.get("bandwidth_utilization")
    _require(isinstance(util, (int, float)) and 0.0 < util <= 1.0,
             "'bandwidth_utilization' must be in (0, 1]")
    if "tenants" in spec:
        from repro.workloads.multitenant import validate_multi_tenant_spec
        validate_multi_tenant_spec(spec)
        return
    buffers = spec.get("buffers")
    _require(isinstance(buffers, list) and buffers,
             "suite spec needs a non-empty 'buffers' list")
    names = set()
    for buf in buffers:
        _require(bool(buf.get("name")), "every buffer needs a 'name'")
        _require(buf["name"] not in names,
                 f"duplicate buffer name {buf['name']!r}")
        names.add(buf["name"])
        parse_size(buf.get("size", 0))
        space = buf.get("space", "global")
        _require(space in [s.value for s in MemorySpace],
                 f"buffer {buf['name']!r}: unknown space {space!r}")
    phases = spec.get("phases")
    _require(isinstance(phases, list) and phases,
             "suite spec needs a non-empty 'phases' list")
    _require(phases[0].get("barrier", True) is not False,
             "the first phase cannot have barrier=false "
             "(there is no previous kernel to extend)")
    for phase in phases:
        _require(bool(phase.get("name")), "every phase needs a 'name'")
        mode = phase.get("compose", "interleave")
        _require(mode in COMPOSE_MODES,
                 f"phase {phase['name']!r}: unknown compose mode {mode!r}; "
                 f"choose from {COMPOSE_MODES}")
        steps = phase.get("steps")
        _require(isinstance(steps, list) and steps,
                 f"phase {phase['name']!r} needs a non-empty 'steps' list")
        for ref in list(phase.get("copies", ())) + \
                list(phase.get("readonly_resets", ())):
            _require(ref in names,
                     f"phase {phase['name']!r}: unknown buffer {ref!r}")
        for step in steps:
            pattern = step.get("pattern")
            _require(pattern in PRIMITIVES,
                     f"phase {phase['name']!r}: unknown pattern "
                     f"{pattern!r}; known: {sorted(PRIMITIVES)}")
            _require(step.get("buffer") in names,
                     f"phase {phase['name']!r}: step targets unknown "
                     f"buffer {step.get('buffer')!r}")
            extra = set(step) - {"pattern", "buffer"} - \
                set(PRIMITIVES[pattern].params)
            _require(not extra,
                     f"phase {phase['name']!r}: pattern {pattern!r} does "
                     f"not accept {sorted(extra)}; accepted: "
                     f"{sorted(PRIMITIVES[pattern].params)}")


def _step_accesses(rng: random.Random, step: Dict[str, Any], buf: Buffer,
                   scale: float) -> List[pat.Access]:
    primitive = PRIMITIVES[step["pattern"]]
    params = dict(primitive.params)
    params.update({k: v for k, v in step.items()
                   if k not in ("pattern", "buffer")})
    for key in primitive.scaled:
        if key in params and params[key] is not None:
            params[key] = max(1, int(params[key] * scale))
    if "hot_bytes" in params:
        params["hot_bytes"] = min(parse_size(params["hot_bytes"]), buf.size)
    if "stride" in params and params["stride"] is not None:
        params["stride"] = parse_size(params["stride"])
    return primitive.generate(rng, buf.address, buf.size, **params)


def _compose(rng: random.Random, mode: str,
             sources: Sequence[List[pat.Access]]) -> List[pat.Access]:
    if mode == "concat":
        return [access for source in sources for access in source]
    if mode == "chunked":
        return pat.chunked_interleave(rng, sources)
    return pat.interleave(rng, sources)


def build_workload(spec: Dict[str, Any], scale: float = 1.0) -> Workload:
    """Lower a suite spec onto the :class:`Workload`/:class:`Kernel`
    model.  ``scale`` multiplies buffer sizes and per-step access
    counts together (the suite-wide convention), leaving the
    access-to-footprint ratio invariant.
    """
    validate_spec(spec)
    if "tenants" in spec:
        from repro.workloads.multitenant import build_multi_tenant
        return build_multi_tenant(spec, scale)

    builder = WorkloadBuilder(
        spec["name"], spec["bandwidth_utilization"],
        seed=spec.get("seed", 0), description=spec.get("description", ""),
    )
    buffers: Dict[str, Buffer] = {}
    for buf in spec["buffers"]:
        size = parse_size(buf["size"])
        if not buf.get("fixed_size", False):
            size = max(1, int(size * scale))
        buffers[buf["name"]] = builder.alloc(
            buf["name"], size,
            space=MemorySpace(buf.get("space", "global")),
            host_init=buf.get("host_init", True),
        )
    for phase in spec["phases"]:
        sources = [
            _step_accesses(builder.rng, step, buffers[step["buffer"]], scale)
            for step in phase["steps"]
        ]
        accesses = _compose(builder.rng, phase.get("compose", "interleave"),
                            sources)
        for _ in range(int(phase.get("repeat", 1)) - 1):
            more = [
                _step_accesses(builder.rng, step, buffers[step["buffer"]],
                               scale)
                for step in phase["steps"]
            ]
            accesses += _compose(
                builder.rng, phase.get("compose", "interleave"), more)
        if phase.get("barrier", True) is False:
            # Phase marker, not a barrier: extend the previous kernel.
            builder._kernels[-1].accesses.extend(accesses)
            continue
        builder.kernel(
            phase["name"], accesses,
            copies=[buffers[b] for b in phase.get("copies", ())],
            readonly_resets=[buffers[b]
                             for b in phase.get("readonly_resets", ())],
        )
    workload = builder.build()
    if spec.get("instructions_per_access"):
        workload.instructions_per_access = int(
            spec["instructions_per_access"])
    return workload


def load_spec(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a suite spec from a ``.json`` or ``.toml`` file.

    TOML needs :mod:`tomllib` (Python 3.11+); on older interpreters a
    clear error suggests the JSON form instead of crashing on import.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise SpecError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                f"convert to JSON or upgrade") from None
        try:
            spec = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"{path}: invalid TOML: {exc}") from exc
    else:
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# The builder API (lowers through its own spec)
# ---------------------------------------------------------------------------

@dataclass
class _PhaseDecl:
    name: str
    steps: List[Dict[str, Any]]
    compose: str = "interleave"
    barrier: bool = True
    repeat: int = 1
    copies: List[str] = field(default_factory=list)
    readonly_resets: List[str] = field(default_factory=list)


def step(pattern: str, buffer: str, **params: Any) -> Dict[str, Any]:
    """One pattern step for :meth:`Composer.phase` (validated at
    build time against the primitive's accepted params)."""
    return {"pattern": pattern, "buffer": buffer, **params}


class Composer:
    """Programmatic suite construction; ``to_spec()`` emits the exact
    JSON form, and ``build()`` lowers through it, so the two authoring
    routes can never drift apart."""

    def __init__(self, name: str, bandwidth_utilization: float,
                 seed: int = 0, description: str = "") -> None:
        self.name = name
        self.bandwidth_utilization = bandwidth_utilization
        self.seed = seed
        self.description = description
        self._buffers: List[Dict[str, Any]] = []
        self._phases: List[_PhaseDecl] = []

    def buffer(self, name: str, size: Union[int, str],
               space: str = "global", host_init: bool = True,
               fixed_size: bool = False) -> "Composer":
        decl: Dict[str, Any] = {"name": name, "size": size}
        if space != "global":
            decl["space"] = space
        if not host_init:
            decl["host_init"] = False
        if fixed_size:
            decl["fixed_size"] = True
        self._buffers.append(decl)
        return self

    def phase(self, name: str, *steps: Dict[str, Any],
              compose: str = "interleave", barrier: bool = True,
              repeat: int = 1, copies: Sequence[str] = (),
              readonly_resets: Sequence[str] = ()) -> "Composer":
        self._phases.append(_PhaseDecl(
            name=name, steps=list(steps), compose=compose, barrier=barrier,
            repeat=repeat, copies=list(copies),
            readonly_resets=list(readonly_resets),
        ))
        return self

    def to_spec(self) -> Dict[str, Any]:
        phases = []
        for decl in self._phases:
            entry: Dict[str, Any] = {"name": decl.name, "steps": decl.steps}
            if decl.compose != "interleave":
                entry["compose"] = decl.compose
            if not decl.barrier:
                entry["barrier"] = False
            if decl.repeat != 1:
                entry["repeat"] = decl.repeat
            if decl.copies:
                entry["copies"] = decl.copies
            if decl.readonly_resets:
                entry["readonly_resets"] = decl.readonly_resets
            phases.append(entry)
        spec: Dict[str, Any] = {
            "suite_format": SUITE_FORMAT,
            "name": self.name,
            "bandwidth_utilization": self.bandwidth_utilization,
            "buffers": list(self._buffers),
            "phases": phases,
        }
        if self.seed:
            spec["seed"] = self.seed
        if self.description:
            spec["description"] = self.description
        return spec

    def build(self, scale: float = 1.0) -> Workload:
        return build_workload(self.to_spec(), scale)


# ---------------------------------------------------------------------------
# Introspection (repro workloads --describe)
# ---------------------------------------------------------------------------

def describe(spec: Dict[str, Any], workload: Workload,
             scale: float = 1.0) -> str:
    """The composed phase plan as human-readable text: buffers, then
    per-phase step lists with materialised access counts and the write
    fraction — what the spec *means* before a scheme ever runs it.
    ``workload`` is ``build_workload(spec, scale)``."""
    validate_spec(spec)
    lines = [f"suite {spec['name']!r} @ scale {scale:g}: "
             f"{len(workload.buffers)} buffers, "
             f"{len(workload.kernels)} kernels, "
             f"{workload.total_accesses:,} accesses, "
             f"util target {workload.bandwidth_utilization:.0%}"]
    if "tenants" in spec:
        from repro.workloads.multitenant import describe_tenants
        lines += describe_tenants(spec, workload)
    else:
        for buf in workload.buffers:
            lines.append(f"  buffer {buf.name:16s} {buf.size >> 10:8,} KB "
                         f"{buf.space.value:8s} "
                         f"{'host-init' if buf.host_init else 'uninit'}")
        specs_by_name = {p["name"]: p for p in spec["phases"]}
        for kernel in workload.kernels:
            writes = sum(1 for _, w, _ in kernel.accesses if w)
            phase = specs_by_name.get(kernel.name, {})
            steps = ", ".join(
                f"{s['pattern']}({s['buffer']})" for s in
                phase.get("steps", ()))
            lines.append(
                f"  phase {kernel.name:20s} {len(kernel.accesses):8,} "
                f"accesses {writes / max(1, len(kernel.accesses)):5.1%} "
                f"writes  [{phase.get('compose', 'interleave')}] {steps}")
    return "\n".join(lines)
