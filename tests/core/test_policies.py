"""The policy layer and the scheme registry (repro.core.policies).

The registry's acceptance bar: a new scheme is ONE registration —
after ``register_scheme`` it runs end-to-end through ``SimConfig``,
the :class:`Runner` and the CLI parser without any change to
``repro.core.mee``.
"""

from __future__ import annotations

import pytest

from repro.common.config import MDCConfig, SimConfig, scheme_config
from repro.common.types import Scheme
from repro.core.mee import MemoryEncryptionEngine
from repro.core.policies import (
    BlockMACPolicy,
    CommonCounterPolicy,
    DualGranularityMACPolicy,
    SharedReadonlyCounterPolicy,
    SplitCounterPolicy,
    available_schemes,
    build_scheme_config,
    integrity_policy,
    register_scheme,
    resolve_scheme,
    scheme_entry,
    unregister_scheme,
)
from repro.metadata.caches import MetadataCaches
from repro.sim.runner import Runner
from tests.conftest import RecordingPlace


@pytest.fixture
def custom_scheme():
    """A throwaway registry entry, removed again after the test."""
    name = "shm_nobmt_test"
    register_scheme(name, base=Scheme.SHM,
                    description="SHM without replay protection",
                    integrity_tree="none")
    yield name
    unregister_scheme(name)


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------

def test_paper_designs_are_preregistered():
    names = available_schemes()
    assert set(names) >= {s.value for s in Scheme}
    for s in Scheme:
        entry = scheme_entry(s)
        assert entry.base is s and not entry.custom


def test_unknown_flag_is_rejected():
    with pytest.raises(ValueError, match="unknown SchemeConfig flag"):
        register_scheme("typo_test", base=Scheme.SHM,
                        dual_granularity_mack=True)
    assert "typo_test" not in available_schemes()


def test_duplicate_registration_is_rejected(custom_scheme):
    with pytest.raises(ValueError, match="already registered"):
        register_scheme(custom_scheme, base=Scheme.SHM)


def test_builtin_schemes_cannot_be_unregistered():
    with pytest.raises(ValueError, match="built-in"):
        unregister_scheme("shm")


def test_shadow_then_unregister_restores_builtin():
    # Shadowing a Table VIII name with replace=True and then
    # unregistering the shadow must restore the built-in entry, not
    # leave a hole that breaks every later resolve of the design.
    register_scheme("shm", base=Scheme.SHM, replace=True,
                    description="shadow", integrity_tree="none")
    assert scheme_entry("shm").custom
    unregister_scheme("shm")
    entry = scheme_entry("shm")
    assert not entry.custom
    assert resolve_scheme("shm") is Scheme.SHM
    assert scheme_config(Scheme.SHM).dual_granularity_mac


def test_registry_leak_is_contained_by_fixture():
    # The autouse conftest fixture snapshots the registry: deliberately
    # "leak" an entry here; the paired test below (runs later in file
    # order) asserts it is gone.
    register_scheme("leaky_test_scheme", base=Scheme.PSSM)
    assert "leaky_test_scheme" in available_schemes()


def test_registry_leak_was_rolled_back():
    assert "leaky_test_scheme" not in available_schemes()


def test_resolve_scheme_maps_paper_names_to_enum(custom_scheme):
    assert resolve_scheme("shm") is Scheme.SHM
    assert resolve_scheme(custom_scheme) == custom_scheme
    with pytest.raises(ValueError, match="unknown scheme"):
        resolve_scheme("not_a_scheme")


def test_custom_entry_materialises_config(custom_scheme):
    config = build_scheme_config(custom_scheme)
    assert config.scheme is Scheme.SHM  # rides on its base design
    assert config.name == custom_scheme
    assert config.label == custom_scheme
    assert config.integrity_tree == "none"
    assert config.dual_granularity_mac  # inherited from the SHM base
    # The common-layer shim resolves registry names too.
    assert scheme_config(custom_scheme) == config


def test_paper_configs_unchanged_by_registry():
    for s in Scheme:
        config = scheme_config(s)
        assert config.scheme is s
        assert config.label == s.value


# ---------------------------------------------------------------------------
# Policy composition (build_policies via the MEE)
# ---------------------------------------------------------------------------

def _mee_for(scheme, **flags) -> MemoryEncryptionEngine:
    from repro.common.address import AddressMapper
    from repro.metadata.counters import SharedCounter

    config = SimConfig().with_scheme(scheme, **flags)
    mapper = AddressMapper(config.gpu.num_partitions,
                           config.gpu.interleave_bytes)
    return MemoryEncryptionEngine(0, config, mapper, SharedCounter())


def test_policy_stack_matches_scheme_flags():
    mee = _mee_for(Scheme.PSSM)
    assert isinstance(mee.counter_policy, SplitCounterPolicy)
    assert isinstance(mee.mac_policy, BlockMACPolicy)

    mee = _mee_for(Scheme.PSSM_CTR)
    assert isinstance(mee.counter_policy, CommonCounterPolicy)
    assert isinstance(mee.counter_policy.inner, SplitCounterPolicy)

    mee = _mee_for(Scheme.SHM)
    assert isinstance(mee.counter_policy, SharedReadonlyCounterPolicy)
    assert isinstance(mee.counter_policy.inner, SplitCounterPolicy)
    assert isinstance(mee.mac_policy, DualGranularityMACPolicy)

    mee = _mee_for(Scheme.SHM_CCTR)
    assert isinstance(mee.counter_policy, SharedReadonlyCounterPolicy)
    assert isinstance(mee.counter_policy.inner, CommonCounterPolicy)


def test_integrity_policy_selects_walker():
    assert _mee_for(Scheme.SHM).bmt.arity == 16
    assert _mee_for(Scheme.SHM, integrity_tree="counter_tree").bmt.arity == 8
    null_walker = _mee_for(Scheme.SHM, integrity_tree="none").bmt
    placed = RecordingPlace()
    caches = MetadataCaches(MDCConfig(), 0, placed)
    null_walker.walk(caches, 0, True)
    assert null_walker.arity == 0 and placed == [] and caches.displaced == []
    with pytest.raises(ValueError, match="unknown integrity tree"):
        integrity_policy("merkle_ish")


# ---------------------------------------------------------------------------
# End-to-end: one registration, no core/mee.py changes
# ---------------------------------------------------------------------------

def test_custom_scheme_runs_end_to_end(custom_scheme):
    runner = Runner(scale=0.02)
    result = runner.run("atax", custom_scheme)
    base = runner.run("atax", Scheme.SHM)
    # No integrity tree: zero BMT traffic, but otherwise a real secure
    # run (counters + MACs still flow).
    assert result.traffic.bmt_bytes == 0
    assert base.traffic.bmt_bytes > 0
    assert result.traffic.counter_bytes > 0
    assert result.traffic.mac_bytes > 0
    assert result.cycles <= base.cycles
    # Cached under the registry name, distinct from the base design.
    from repro.eval.results_io import serialize_run_result

    assert (serialize_run_result(runner.run("atax", custom_scheme))
            == serialize_run_result(result))
    assert serialize_run_result(result) != serialize_run_result(base)


def test_custom_scheme_through_simconfig(custom_scheme):
    config = SimConfig().with_scheme(custom_scheme)
    assert config.scheme.label == custom_scheme
    assert config.scheme.is_secure
