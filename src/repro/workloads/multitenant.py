"""The multi-tenant traffic model: N concurrent tenant streams merged
into one address stream.

This is the workload class the adaptive detectors are *not* stressed
by anywhere in the paper: many independent clients (think inference
requests from millions of users) time-sharing one GPU, each with its
own buffers, each flipping access patterns on its own schedule.  Under
contention the per-region security metadata of one tenant evicts
another's metadata-cache lines and detector state, which is exactly
where per-region scheme selection pays — or thrashes.

Model, in the spec's terms (``suite_format: 1`` with a ``tenants``
list and a ``multi_tenant`` block):

* **Tenancy** — every tenant owns a private slab of the address
  space: a host-initialised ``<tenant>/data`` buffer (its working set)
  and an uninitialised ``<tenant>/out`` buffer (its results).  Slabs
  are allocated by the standard :class:`WorkloadBuilder` allocator, so
  they are disjoint and 192 KB-aligned — no two tenants ever share a
  16 KB detector region or a 4 KB MAC chunk (isolation is by
  construction, contention is only through the shared caches).
* **Arrival** — tenants issue *bursts* of ``burst_accesses`` accesses
  on a logical slot timeline (one slot = one issue opportunity).
  ``arrival: "poisson"`` draws exponential inter-burst gaps at
  ``rate`` bursts/slot (open-loop, bursts may pile up);
  ``arrival: "closed_loop"`` issues the next burst ``think_slots``
  after the previous one finishes (self-throttling clients).
* **Phase churn** — at every epoch boundary each tenant re-rolls with
  probability ``phase_churn`` and switches to a different pattern from
  its ``patterns`` list (sequential -> zipfian, ...).  Epochs lower to
  kernels, so churn points are barriers — the detector-relearn case.
* **Interleaving** — every access is stamped with its burst's arrival
  time plus its in-burst offset; the global merge sorts by
  ``(timestamp, tenant index, per-tenant sequence)``.  All randomness
  derives from per-tenant ``random.Random`` instances seeded by
  CRC-32 of ``(suite seed, tenant name)``, so the merged stream is
  byte-identical across processes and ``PYTHONHASHSEED`` values.

Streaming patterns keep a per-tenant cursor across bursts (a burst
continues the sweep where the last one stopped), so streaming-detector
behaviour is preserved even though the tenant's stream arrives
shredded into bursts.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.workloads import patterns as pat
from repro.workloads.base import Buffer, Workload, WorkloadBuilder

ARRIVALS = ("poisson", "closed_loop")

#: Patterns a tenant may cycle through (burst-windowed variants of the
#: compose primitives; ``hotspot``/``gather`` ride on ``zipfian`` /
#: ``random`` here because bursts are short).
TENANT_PATTERNS = ("sequential", "snake", "stride", "random", "zipfian")

_MT_DEFAULTS: Dict[str, Any] = {
    "arrival": "poisson",
    "rate": 0.02,
    "think_slots": 64,
    "epochs": 3,
    "slots_per_epoch": 8192,
    "burst_accesses": 96,
    "phase_churn": 0.0,
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        from repro.workloads.compose import SpecError
        raise SpecError(message)


def validate_multi_tenant_spec(spec: Dict[str, Any]) -> None:
    """Validate the ``multi_tenant`` block and the ``tenants`` list
    (called from :func:`repro.workloads.compose.validate_spec`)."""
    from repro.workloads.compose import parse_size

    mt = dict(_MT_DEFAULTS)
    mt.update(spec.get("multi_tenant", {}))
    unknown = set(spec.get("multi_tenant", {})) - set(_MT_DEFAULTS)
    _require(not unknown,
             f"multi_tenant: unknown key(s) {sorted(unknown)}; "
             f"accepted: {sorted(_MT_DEFAULTS)}")
    _require(mt["arrival"] in ARRIVALS,
             f"multi_tenant: unknown arrival {mt['arrival']!r}; "
             f"choose from {ARRIVALS}")
    _require(mt["rate"] > 0, "multi_tenant: rate must be positive")
    _require(int(mt["epochs"]) >= 1, "multi_tenant: epochs must be >= 1")
    _require(int(mt["slots_per_epoch"]) >= 1,
             "multi_tenant: slots_per_epoch must be >= 1")
    _require(int(mt["burst_accesses"]) >= 1,
             "multi_tenant: burst_accesses must be >= 1")
    _require(0.0 <= float(mt["phase_churn"]) <= 1.0,
             "multi_tenant: phase_churn must be in [0, 1]")
    tenants = spec.get("tenants")
    _require(isinstance(tenants, list) and tenants,
             "multi-tenant spec needs a non-empty 'tenants' list")
    names = set()
    for tenant in tenants:
        _require(bool(tenant.get("name")), "every tenant needs a 'name'")
        _require(tenant["name"] not in names,
                 f"duplicate tenant name {tenant['name']!r}")
        names.add(tenant["name"])
        parse_size(tenant.get("footprint", 0))
        patterns = tenant.get("patterns", ["sequential"])
        _require(isinstance(patterns, list) and patterns,
                 f"tenant {tenant['name']!r}: 'patterns' must be a "
                 f"non-empty list")
        unknown_p = set(patterns) - set(TENANT_PATTERNS)
        _require(not unknown_p,
                 f"tenant {tenant['name']!r}: unknown pattern(s) "
                 f"{sorted(unknown_p)}; known: {list(TENANT_PATTERNS)}")
        wf = tenant.get("write_fraction", 0.1)
        _require(0.0 <= float(wf) < 1.0,
                 f"tenant {tenant['name']!r}: write_fraction must be "
                 f"in [0, 1)")


# ---------------------------------------------------------------------------
# Per-tenant burst generation
# ---------------------------------------------------------------------------

@dataclass
class _Tenant:
    """Execution state of one tenant stream during generation."""

    index: int
    name: str
    rng: random.Random
    data: Buffer
    out: Buffer
    patterns: List[str]
    write_fraction: float
    active: int = 0      # index into ``patterns``
    cursor: int = 0      # streaming byte offset into ``data``
    direction: int = 1   # snake sweep direction

    def churn(self, probability: float) -> bool:
        """Maybe switch the active pattern; returns True on a switch."""
        if len(self.patterns) < 2 or self.rng.random() >= probability:
            return False
        choices = [i for i in range(len(self.patterns)) if i != self.active]
        self.active = self.rng.choice(choices)
        return True

    def burst(self, count: int) -> List[pat.Access]:
        """``count`` accesses of the active pattern; streaming patterns
        continue from the cursor, so consecutive bursts form one sweep."""
        reads = max(1, count - int(count * self.write_fraction))
        writes = count - reads
        pattern = self.patterns[self.active]
        if pattern == "sequential":
            body = self._window(reads, snake=False)
        elif pattern == "snake":
            body = self._window(reads, snake=True)
        elif pattern == "stride":
            body = pat.strided_read(self.data.address, self.data.size,
                                    stride=4096, count=reads)
        elif pattern == "random":
            body = pat.random_read(self.rng, self.data.address,
                                   self.data.size, reads)
        else:  # zipfian
            body = pat.zipfian(self.rng, self.data.address, self.data.size,
                               reads)
        if writes:
            body = pat.interleave(self.rng, [
                body,
                pat.random_write(self.rng, self.out.address, self.out.size,
                                 writes),
            ])
        return body

    def _window(self, lines: int, snake: bool) -> List[pat.Access]:
        out: List[pat.Access] = []
        for _ in range(lines):
            out.append((self.data.address + self.cursor, False, pat.SECTORS))
            nxt = self.cursor + self.direction * pat.LINE
            if 0 <= nxt < self.data.size:
                self.cursor = nxt
            elif snake:
                self.direction = -self.direction
                self.cursor += self.direction * pat.LINE
                self.cursor = max(0, min(self.data.size - pat.LINE,
                                         self.cursor))
            else:
                self.cursor = 0
        return out


def _burst_times(tenant: _Tenant, mt: Dict[str, Any]) -> List[float]:
    """Arrival times (slots) of one tenant's bursts within one epoch."""
    horizon = float(mt["slots_per_epoch"])
    burst = int(mt["burst_accesses"])
    times: List[float] = []
    if mt["arrival"] == "poisson":
        t = tenant.rng.expovariate(float(mt["rate"]))
        while t < horizon:
            times.append(t)
            t += tenant.rng.expovariate(float(mt["rate"]))
    else:  # closed_loop: next burst starts think_slots after the last ends
        t = float(tenant.rng.randrange(int(mt["think_slots"]) + 1))
        while t < horizon:
            times.append(t)
            t += burst + float(mt["think_slots"])
    return times


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def build_multi_tenant(spec: Dict[str, Any], scale: float = 1.0) -> Workload:
    """Lower a multi-tenant spec to a :class:`Workload`: one kernel per
    epoch, each the timestamp-sorted merge of every tenant's bursts."""
    from repro.workloads.compose import parse_size

    mt = dict(_MT_DEFAULTS)
    mt.update(spec.get("multi_tenant", {}))
    seed = spec.get("seed", 0) or zlib.crc32(spec["name"].encode())
    builder = WorkloadBuilder(
        spec["name"], spec["bandwidth_utilization"], seed=seed,
        description=spec.get("description", ""),
    )
    tenants: List[_Tenant] = []
    for index, decl in enumerate(spec["tenants"]):
        footprint = max(1, int(parse_size(decl.get("footprint", 1 << 20))
                               * scale))
        data = builder.alloc(f"{decl['name']}/data", footprint)
        out = builder.alloc(f"{decl['name']}/out",
                            max(1, footprint // 4), host_init=False)
        tenants.append(_Tenant(
            index=index, name=decl["name"],
            rng=random.Random(zlib.crc32(
                f"{seed}:{decl['name']}".encode())),
            data=data, out=out,
            patterns=list(decl.get("patterns", ["sequential"])),
            write_fraction=float(decl.get("write_fraction", 0.1)),
        ))

    burst_count = max(1, int(int(mt["burst_accesses"]) * scale))
    churn = float(mt["phase_churn"])
    for epoch in range(int(mt["epochs"])):
        if epoch > 0:
            for tenant in tenants:
                tenant.churn(churn)
        # (timestamp, tenant index, per-tenant sequence, access)
        timeline: List[Tuple[float, int, int, pat.Access]] = []
        for tenant in tenants:
            seq = 0
            for start in _burst_times(tenant, mt):
                for offset, access in enumerate(tenant.burst(burst_count)):
                    timeline.append((start + offset, tenant.index, seq,
                                     access))
                    seq += 1
        timeline.sort(key=lambda item: item[:3])
        builder.kernel(f"epoch{epoch}",
                       [access for _, _, _, access in timeline])
    return builder.build()


def describe_tenants(spec: Dict[str, Any], workload: Workload) -> List[str]:
    """Per-tenant lines for ``repro workloads --describe``, given the
    spec and the workload built from it."""
    mt = dict(_MT_DEFAULTS)
    mt.update(spec.get("multi_tenant", {}))
    lines = [f"  multi-tenant: {len(spec['tenants'])} tenants, "
             f"{mt['arrival']} arrivals, {mt['epochs']} epochs x "
             f"{mt['slots_per_epoch']} slots, "
             f"burst {mt['burst_accesses']}, "
             f"phase churn {float(mt['phase_churn']):.0%}"]
    slabs = {b.name: b for b in workload.buffers}
    for decl in spec["tenants"]:
        data = slabs[f"{decl['name']}/data"]
        out = slabs[f"{decl['name']}/out"]
        lines.append(
            f"  tenant {decl['name']:12s} slab "
            f"[{data.address:#x}, {out.end:#x}) "
            f"{(data.size + out.size) >> 10:6,} KB  "
            f"patterns {'/'.join(decl.get('patterns', ['sequential']))}  "
            f"writes {float(decl.get('write_fraction', 0.1)):.0%}")
    for kernel in workload.kernels:
        writes = sum(1 for _, w, _ in kernel.accesses if w)
        lines.append(f"  {kernel.name:20s} {len(kernel.accesses):8,} "
                     f"accesses {writes / max(1, len(kernel.accesses)):5.1%} "
                     f"writes")
    return lines


# ---------------------------------------------------------------------------
# Spec templates (what the campaign experiments and CI sweep)
# ---------------------------------------------------------------------------

def contention_spec(n_tenants: int = 4, *, seed: int = 1701,
                    phase_churn: float = 0.0, arrival: str = "poisson",
                    footprint: str = "1.5MB",
                    bandwidth_utilization: float = 0.6) -> Dict[str, Any]:
    """A symmetric N-tenant contention suite: every tenant streams and
    zipf-reads its own slab, so the only interaction is through the
    shared metadata caches and detectors.  Tenant count is the knob."""
    from repro.workloads.compose import SUITE_FORMAT

    patterns = [["sequential", "zipfian"], ["zipfian", "random"],
                ["snake", "sequential"], ["stride", "zipfian"]]
    name = f"mt{n_tenants}"
    if arrival != "poisson":
        name += f"_{arrival}"
    return {
        "suite_format": SUITE_FORMAT,
        "name": name,
        "description": f"{n_tenants}-tenant metadata-contention suite",
        "bandwidth_utilization": bandwidth_utilization,
        "seed": seed,
        "multi_tenant": {
            "arrival": arrival,
            "rate": 0.02,
            "epochs": 3,
            "slots_per_epoch": 8192,
            "burst_accesses": 96,
            "phase_churn": phase_churn,
        },
        "tenants": [
            {"name": f"t{i}", "footprint": footprint,
             "patterns": patterns[i % len(patterns)],
             "write_fraction": 0.08 + 0.04 * (i % 3)}
            for i in range(n_tenants)
        ],
    }


def phase_churn_spec(churn: float, n_tenants: int = 4, *,
                     seed: int = 2241) -> Dict[str, Any]:
    """The churn sweep's suite: a fixed 4-tenant mix whose tenants
    re-roll their pattern each epoch with probability ``churn`` — at 0
    the detectors converge once, at 1 every epoch is a cold start."""
    spec = contention_spec(n_tenants, seed=seed, phase_churn=churn)
    spec["name"] = f"mt{n_tenants}_churn{int(round(churn * 100))}"
    spec["description"] = (f"{n_tenants}-tenant suite, "
                           f"{churn:.0%} per-epoch phase churn")
    spec["multi_tenant"]["epochs"] = 4
    return spec


#: name -> zero-argument spec factory (``repro workloads`` lists these).
TEMPLATES: Dict[str, Any] = {
    "mt2": lambda: contention_spec(2),
    "mt4": lambda: contention_spec(4),
    "mt8": lambda: contention_spec(8),
    "mt4_closed_loop": lambda: contention_spec(4, arrival="closed_loop"),
    "mt4_churn50": lambda: phase_churn_spec(0.5),
    "mt4_churn100": lambda: phase_churn_spec(1.0),
}
