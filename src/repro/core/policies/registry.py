"""The scheme registry: named, declarative policy compositions.

Every secure-memory design the simulator can run — the ten Table VIII
designs and any custom composition — is a :class:`SchemeEntry`: a name
plus the :class:`~repro.common.config.SchemeConfig` feature flags that
select its counter / MAC / integrity policies (see
:mod:`repro.core.policies`).  The registry makes a new scheme **one
registration**::

    register_scheme(
        "shm_ctree", base=Scheme.SHM,
        description="SHM over an SGX-style counter tree",
        integrity_tree="counter_tree",
    )

after which ``"shm_ctree"`` works everywhere a scheme name does:
``SimConfig.with_scheme("shm_ctree")``, ``Runner.run(name,
"shm_ctree")``, and a campaign ``JobSpec(scheme="shm_ctree")`` — no
change to :mod:`repro.core.mee` required.  A custom entry rides on its
``base`` design's :class:`~repro.common.types.Scheme` enum tag (used
for result labelling and the unprotected check) and carries its
registry name in ``SchemeConfig.name``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Union

from repro.common.config import DetectorConfig, SchemeConfig
from repro.common.types import Scheme

#: The Table VIII designs as feature-flag deltas (the table formerly
#: inlined in ``repro.common.config.scheme_config``).
_PAPER_FLAGS: Dict[Scheme, Dict[str, Any]] = {
    Scheme.UNPROTECTED: dict(local_metadata=True, sectored_counters=True),
    Scheme.NAIVE: dict(local_metadata=False, sectored_counters=False),
    Scheme.COMMON_CTR: dict(
        local_metadata=False, sectored_counters=False, common_counters=True
    ),
    Scheme.PSSM: dict(),
    Scheme.PSSM_CTR: dict(common_counters=True),
    Scheme.SHM: dict(readonly_optimization=True, dual_granularity_mac=True),
    Scheme.SHM_CCTR: dict(
        readonly_optimization=True,
        dual_granularity_mac=True,
        common_counters=True,
    ),
    Scheme.SHM_VL2: dict(
        readonly_optimization=True,
        dual_granularity_mac=True,
        l2_victim_cache=True,
    ),
    Scheme.SHM_READONLY: dict(readonly_optimization=True),
    Scheme.SHM_UPPER_BOUND: dict(
        readonly_optimization=True,
        dual_granularity_mac=True,
        oracle_detectors=True,
        detectors=DetectorConfig(unlimited=True),
    ),
}

_FLAG_NAMES = frozenset(
    f.name for f in fields(SchemeConfig) if f.name not in ("scheme", "name")
)


@dataclass(frozen=True)
class SchemeEntry:
    """One registered design: a name and its resolved flag set."""

    name: str
    #: The Table VIII design this entry is (or extends) — carried as
    #: ``SchemeConfig.scheme`` for result labelling / baselines.
    base: Scheme
    description: str = ""
    #: Complete ``SchemeConfig`` keyword deltas (base flags already
    #: merged in for custom entries).
    flags: Dict[str, Any] = field(default_factory=dict)
    #: False for the built-in Table VIII entries.
    custom: bool = True


#: name -> entry.  Paper designs are pre-registered under their enum
#: values; custom compositions join via :func:`register_scheme`.
SCHEME_REGISTRY: Dict[str, SchemeEntry] = {}


def register_scheme(name: str, base: Union[Scheme, str] = Scheme.PSSM,
                    description: str = "", replace: bool = False,
                    **flags: Any) -> SchemeEntry:
    """Register a scheme composition under ``name``.

    ``base`` names the design whose flags the entry starts from;
    ``flags`` are :class:`SchemeConfig` field overrides applied on
    top.  Returns the entry.  Unknown flag names raise ``ValueError``
    (typos must not silently produce the base design).
    """
    if not replace and name in SCHEME_REGISTRY:
        raise ValueError(f"scheme {name!r} is already registered")
    base_scheme = Scheme(base) if not isinstance(base, Scheme) else base
    unknown = sorted(set(flags) - _FLAG_NAMES)
    if unknown:
        raise ValueError(
            f"unknown SchemeConfig flag(s) for {name!r}: {', '.join(unknown)}"
        )
    entry = SchemeEntry(
        name=name,
        base=base_scheme,
        description=description,
        flags={**_PAPER_FLAGS[base_scheme], **flags},
        custom=True,
    )
    SCHEME_REGISTRY[name] = entry
    return entry


def unregister_scheme(name: str) -> None:
    """Remove a *custom* entry (tests use this to stay hermetic).

    When the custom entry had shadowed a built-in design (a
    ``replace=True`` registration over a Table VIII name), the built-in
    entry is restored instead of leaving a hole in the registry — a
    shadow-then-unregister pair previously deleted the design outright,
    breaking every later ``resolve_scheme`` of it.
    """
    entry = SCHEME_REGISTRY.get(name)
    if entry is None:
        return
    if not entry.custom:
        raise ValueError(f"cannot unregister built-in scheme {name!r}")
    del SCHEME_REGISTRY[name]
    builtin = _BUILTIN_ENTRIES.get(name)
    if builtin is not None:
        SCHEME_REGISTRY[name] = builtin


def scheme_entry(scheme: Union[Scheme, str]) -> SchemeEntry:
    """Resolve a :class:`Scheme` member or registry name to its entry."""
    name = scheme.value if isinstance(scheme, Scheme) else scheme
    entry = SCHEME_REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown scheme {name!r}; registered: "
            f"{', '.join(available_schemes())}"
        )
    return entry


def available_schemes(custom_only: bool = False) -> List[str]:
    return sorted(
        name for name, entry in SCHEME_REGISTRY.items()
        if entry.custom or not custom_only
    )


def resolve_scheme(value: str) -> Union[Scheme, str]:
    """Map a scheme name string to the enum member when it names a
    Table VIII design, else pass the (validated) registry name
    through — the form ``Runner.run`` and the campaign worker use."""
    try:
        return Scheme(value)
    except ValueError:
        scheme_entry(value)  # raises with the available list if unknown
        return value


def build_scheme_config(scheme: Union[Scheme, str],
                        **overrides: Any) -> SchemeConfig:
    """Materialise the :class:`SchemeConfig` of a registered design
    (the engine behind :func:`repro.common.config.scheme_config`)."""
    entry = scheme_entry(scheme)
    kwargs: Dict[str, Any] = dict(entry.flags)
    kwargs["scheme"] = entry.base
    kwargs["name"] = entry.name
    kwargs.update(overrides)
    return SchemeConfig(**kwargs)


for _scheme in Scheme:
    SCHEME_REGISTRY[_scheme.value] = SchemeEntry(
        name=_scheme.value,
        base=_scheme,
        description=f"Table VIII design {_scheme.value!r}",
        flags=dict(_PAPER_FLAGS[_scheme]),
        custom=False,
    )
del _scheme

#: Pristine copies of the built-in entries, for restore-on-unregister.
_BUILTIN_ENTRIES: Dict[str, SchemeEntry] = dict(SCHEME_REGISTRY)
