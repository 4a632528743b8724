"""The multi-tenant traffic model: isolation, arrivals, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.workloads.base import ALLOC_ALIGN
from repro.workloads.compose import SpecError, build_workload, validate_spec
from repro.workloads.multitenant import (
    TEMPLATES,
    build_multi_tenant,
    contention_spec,
    phase_churn_spec,
)


def tiny_spec(**mt_overrides):
    """A fast-to-build 2-tenant spec for unit tests."""
    spec = contention_spec(2, footprint="192KB")
    spec["multi_tenant"].update(
        {"epochs": 2, "slots_per_epoch": 1024, "burst_accesses": 32},
        **mt_overrides)
    return spec


#: trace_digest of each suite at scale 0.1.
PINNED_DIGESTS = {
    "mt4_churn0":
        "f2dd99c9e4f595852250c110b015f3c8afa9921c7f2d8792a60039a5cf982536",
    "mt4_churn25":
        "9b1ecb76a0038a4d37a1f3d6c10b5f25ec8359842f3fb88df6d708d6fb0b30b2",
    "mt4_churn50":
        "6f4a60e077bcc9f28c36aaa634f78fc8341b789d019e6d79695c15ea59b2f4e9",
    "mt4_churn100":
        "93b4ae737aec34bb1759c16d5799d6188f4e385d6ad30ecacfce994f6ecb9d72",
    "mt4":
        "591704a4139e7486112cfec3642869ef21509c0c37fb78932017ce52a08d8b8e",
}


def trace_digest(workload) -> str:
    h = hashlib.sha256()
    for kernel in workload.kernels:
        h.update(json.dumps(list(kernel.accesses)).encode())
    return h.hexdigest()


class TestValidation:
    def test_templates_all_validate(self):
        for name, factory in TEMPLATES.items():
            validate_spec(factory())

    def test_unknown_arrival(self):
        with pytest.raises(SpecError, match="arrival"):
            validate_spec(tiny_spec(arrival="psychic"))

    def test_unknown_mt_key(self):
        spec = tiny_spec()
        spec["multi_tenant"]["jitter"] = 1
        with pytest.raises(SpecError, match="jitter"):
            validate_spec(spec)

    def test_unknown_tenant_pattern(self):
        spec = tiny_spec()
        spec["tenants"][0]["patterns"] = ["gather"]
        with pytest.raises(SpecError, match="gather"):
            validate_spec(spec)

    def test_duplicate_tenant_name(self):
        spec = tiny_spec()
        spec["tenants"][1]["name"] = spec["tenants"][0]["name"]
        with pytest.raises(SpecError, match="duplicate"):
            validate_spec(spec)

    def test_churn_out_of_range(self):
        with pytest.raises(SpecError, match="phase_churn"):
            validate_spec(tiny_spec(phase_churn=1.5))


class TestLowering:
    def test_one_kernel_per_epoch(self):
        w = build_multi_tenant(tiny_spec())
        assert [k.name for k in w.kernels] == ["epoch0", "epoch1"]
        w.validate()

    def test_tenant_slabs_are_disjoint_and_aligned(self):
        w = build_multi_tenant(tiny_spec())
        spans = sorted((b.address, b.end) for b in w.buffers)
        assert all(b.address % ALLOC_ALIGN == 0 for b in w.buffers)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_single_tenant_stays_inside_its_slab(self):
        spec = tiny_spec()
        spec["tenants"] = spec["tenants"][:1]
        w = build_multi_tenant(spec)
        lo = min(b.address for b in w.buffers)
        hi = max(b.end for b in w.buffers)
        for kernel in w.kernels:
            assert all(lo <= addr < hi for addr, _, _ in kernel.accesses)

    def test_writes_target_out_buffer_only(self):
        w = build_multi_tenant(tiny_spec())
        outs = [b for b in w.buffers if b.name.endswith("/out")]
        for kernel in w.kernels:
            for addr, is_write, _ in kernel.accesses:
                if is_write:
                    assert any(b.address <= addr < b.end for b in outs)

    def test_closed_loop_arrival_builds(self):
        w = build_multi_tenant(tiny_spec(arrival="closed_loop"))
        assert w.total_accesses > 0

    def test_full_churn_changes_epochs(self):
        spec = tiny_spec(phase_churn=1.0)
        w = build_multi_tenant(spec)
        # With certain churn each tenant flips patterns at the epoch
        # boundary, so the two epochs cannot carry identical streams.
        assert w.kernels[0].accesses != w.kernels[1].accesses

    def test_scale_shrinks_footprint_and_bursts(self):
        # 1.5MB footprints so the halving is visible through alloc's
        # 192KB size rounding.
        spec = contention_spec(2, footprint="1.5MB")
        spec["multi_tenant"].update(
            epochs=2, slots_per_epoch=1024, burst_accesses=32)
        full = build_multi_tenant(spec, scale=1.0)
        half = build_multi_tenant(spec, scale=0.5)
        assert half.buffers[0].size == full.buffers[0].size // 2
        assert 0 < half.total_accesses < full.total_accesses

    def test_compose_dispatches_tenant_specs(self):
        via_compose = build_workload(tiny_spec())
        direct = build_multi_tenant(tiny_spec())
        assert trace_digest(via_compose) == trace_digest(direct)


class TestSpecFactories:
    def test_contention_names_follow_tenant_count(self):
        assert contention_spec(8)["name"] == "mt8"
        assert len(contention_spec(8)["tenants"]) == 8

    def test_closed_loop_gets_distinct_name(self):
        assert contention_spec(4, arrival="closed_loop")["name"] == \
            "mt4_closed_loop"

    def test_churn_names_carry_percentage(self):
        assert phase_churn_spec(0.25)["name"] == "mt4_churn25"
        assert phase_churn_spec(0.25)["multi_tenant"]["phase_churn"] == 0.25


class TestDeterminism:
    def test_rebuild_is_byte_identical(self):
        assert trace_digest(build_multi_tenant(tiny_spec())) == \
            trace_digest(build_multi_tenant(tiny_spec()))

    @pytest.mark.parametrize(
        "spec", [phase_churn_spec(churn) for churn in (0.0, 0.25, 0.5, 1.0)]
        + [contention_spec(4)], ids=lambda spec: spec["name"])
    def test_pinned_trace_digest(self, spec):
        """The churn and contention suites at scale 0.1 reproduce the
        traces the campaign results were measured on, byte for byte."""
        assert trace_digest(build_multi_tenant(spec, 0.1)) == \
            PINNED_DIGESTS[spec["name"]]

    def test_digest_stable_across_pythonhashseed(self, tmp_path):
        """A fresh interpreter with a different PYTHONHASHSEED (the
        pool-worker situation) must produce the identical stream."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec()))
        prog = (
            "import hashlib, json, sys\n"
            "from repro.workloads.compose import build_workload\n"
            "spec = json.load(open(sys.argv[1]))\n"
            "w = build_workload(spec)\n"
            "h = hashlib.sha256()\n"
            "for k in w.kernels:\n"
            "    h.update(json.dumps(list(k.accesses)).encode())\n"
            "print(h.hexdigest())\n"
        )
        digests = set()
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", prog, str(spec_path)],
                env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert digests.pop() == trace_digest(build_multi_tenant(tiny_spec()))
