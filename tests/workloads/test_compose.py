"""The composable suite language: spec validation, lowering, builder
equivalence."""

import json

import pytest

from repro.workloads.base import ALLOC_ALIGN
from repro.workloads.compose import (
    PRIMITIVES,
    SUITE_FORMAT,
    Composer,
    SpecError,
    build_workload,
    describe,
    load_spec,
    parse_size,
    step,
    validate_spec,
)


def small_spec(**overrides):
    spec = {
        "suite_format": SUITE_FORMAT,
        "name": "unit",
        "bandwidth_utilization": 0.5,
        "seed": 42,
        "buffers": [
            {"name": "a", "size": "128KB"},
            {"name": "out", "size": "64KB", "host_init": False},
        ],
        "phases": [
            {"name": "warm", "steps": [
                {"pattern": "sequential", "buffer": "a"}]},
            {"name": "mix", "compose": "chunked", "steps": [
                {"pattern": "zipfian", "buffer": "a", "count": 400},
                {"pattern": "random", "buffer": "out", "count": 100,
                 "write": True},
            ]},
        ],
    }
    spec.update(overrides)
    return spec


class TestParseSize:
    def test_units(self):
        assert parse_size("1.5MB") == 3 << 19
        assert parse_size("192KB") == 192 << 10
        assert parse_size("64B") == 64
        assert parse_size(4096) == 4096

    def test_unparseable(self):
        with pytest.raises(SpecError):
            parse_size("lots")


class TestValidation:
    def test_valid_spec_passes(self):
        validate_spec(small_spec())

    def test_wrong_format_version(self):
        with pytest.raises(SpecError, match="suite_format"):
            validate_spec(small_spec(suite_format=99))

    def test_unknown_pattern_names_known_ones(self):
        spec = small_spec()
        spec["phases"][0]["steps"][0]["pattern"] = "mystery"
        with pytest.raises(SpecError, match="mystery"):
            validate_spec(spec)

    def test_unknown_buffer(self):
        spec = small_spec()
        spec["phases"][0]["steps"][0]["buffer"] = "ghost"
        with pytest.raises(SpecError, match="ghost"):
            validate_spec(spec)

    def test_unaccepted_param_listed(self):
        spec = small_spec()
        spec["phases"][0]["steps"][0]["wat"] = 1
        with pytest.raises(SpecError, match="wat"):
            validate_spec(spec)

    def test_first_phase_cannot_be_marker(self):
        spec = small_spec()
        spec["phases"][0]["barrier"] = False
        with pytest.raises(SpecError, match="barrier"):
            validate_spec(spec)

    def test_unknown_compose_mode(self):
        spec = small_spec()
        spec["phases"][1]["compose"] = "shuffle"
        with pytest.raises(SpecError, match="shuffle"):
            validate_spec(spec)


class TestLowering:
    def test_phases_become_kernels(self):
        w = build_workload(small_spec())
        assert [k.name for k in w.kernels] == ["warm", "mix"]
        w.validate()

    def test_deterministic_across_builds(self):
        a = build_workload(small_spec())
        b = build_workload(small_spec())
        assert [k.accesses for k in a.kernels] == \
            [k.accesses for k in b.kernels]

    def test_phase_marker_extends_previous_kernel(self):
        spec = small_spec()
        spec["phases"].append({
            "name": "flip", "barrier": False,
            "steps": [{"pattern": "random", "buffer": "a", "count": 64}],
        })
        with_marker = build_workload(spec)
        without = build_workload(small_spec())
        assert len(with_marker.kernels) == 2
        assert len(with_marker.kernels[-1].accesses) > \
            len(without.kernels[-1].accesses)

    def test_scale_shrinks_counts_and_sizes(self):
        # 1.5MB = 8 allocation-alignment units, so the halved size is
        # visible through alloc's 192KB rounding.
        spec = small_spec()
        spec["buffers"][0]["size"] = "1.5MB"
        full = build_workload(spec, scale=1.0)
        half = build_workload(spec, scale=0.5)
        assert half.total_accesses < full.total_accesses
        assert half.buffers[0].size == full.buffers[0].size // 2

    def test_fixed_size_buffer_ignores_scale(self):
        spec = small_spec()
        spec["buffers"][0]["size"] = "1.5MB"
        spec["buffers"][0]["fixed_size"] = True
        full = build_workload(spec, scale=1.0)
        half = build_workload(spec, scale=0.5)
        assert half.buffers[0].size == full.buffers[0].size

    def test_buffers_are_alloc_aligned(self):
        w = build_workload(small_spec())
        assert all(b.address % ALLOC_ALIGN == 0 for b in w.buffers)

    def test_every_primitive_lowers(self):
        for name, prim in PRIMITIVES.items():
            spec = small_spec(phases=[
                {"name": "only", "steps": [
                    {"pattern": name, "buffer": "a"}]},
            ])
            w = build_workload(spec, scale=0.5)
            assert w.total_accesses > 0, name
            w.validate()

    def test_concat_preserves_source_order(self):
        spec = small_spec(phases=[
            {"name": "p", "compose": "concat", "steps": [
                {"pattern": "sequential", "buffer": "a"},
                {"pattern": "sequential", "buffer": "out"}]},
        ])
        w = build_workload(spec)
        a, out = w.buffers
        boundary = next(i for i, (addr, _, _) in
                        enumerate(w.kernels[0].accesses)
                        if addr >= out.address)
        assert all(addr < out.address for addr, _, _ in
                   w.kernels[0].accesses[:boundary])
        assert all(addr >= out.address for addr, _, _ in
                   w.kernels[0].accesses[boundary:])

    def test_sequential_write_rejects_stride(self):
        spec = small_spec(phases=[
            {"name": "p", "steps": [
                {"pattern": "sequential", "buffer": "a", "write": True,
                 "stride": 256}]},
        ])
        with pytest.raises(SpecError, match="stride"):
            build_workload(spec)


class TestComposerEquivalence:
    def composer(self):
        return (
            Composer("unit", 0.5, seed=42)
            .buffer("a", "128KB")
            .buffer("out", "64KB", host_init=False)
            .phase("warm", step("sequential", "a"))
            .phase("mix", step("zipfian", "a", count=400),
                   step("random", "out", count=100, write=True),
                   compose="chunked")
        )

    def test_to_spec_matches_hand_written_json(self):
        assert self.composer().to_spec() == small_spec()

    def test_build_equals_spec_build(self):
        built = self.composer().build()
        from_spec = build_workload(small_spec())
        assert [k.accesses for k in built.kernels] == \
            [k.accesses for k in from_spec.kernels]

    def test_spec_survives_json_round_trip(self):
        spec = json.loads(json.dumps(self.composer().to_spec()))
        a = build_workload(spec)
        b = self.composer().build()
        assert [k.accesses for k in a.kernels] == \
            [k.accesses for k in b.kernels]


class TestLoadSpec:
    def test_json_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(small_spec()))
        assert load_spec(path) == small_spec()

    def test_invalid_json_is_spec_error(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="invalid JSON"):
            load_spec(path)

    def test_invalid_spec_rejected_on_load(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(small_spec(suite_format=3)))
        with pytest.raises(SpecError):
            load_spec(path)

    def test_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "suite.toml"
        path.write_text(
            'suite_format = 1\n'
            'name = "toml-suite"\n'
            'bandwidth_utilization = 0.5\n'
            'seed = 42\n'
            '[[buffers]]\nname = "a"\nsize = "128KB"\n'
            '[[phases]]\nname = "warm"\n'
            '[[phases.steps]]\npattern = "sequential"\nbuffer = "a"\n'
        )
        spec = load_spec(path)
        assert spec["name"] == "toml-suite"
        build_workload(spec).validate()


class TestDescribe:
    def test_mentions_phases_and_patterns(self):
        spec = small_spec()
        text = describe(spec, build_workload(spec, 0.5), scale=0.5)
        assert "warm" in text and "mix" in text
        assert "zipfian(a)" in text
        assert "2 kernels" in text
