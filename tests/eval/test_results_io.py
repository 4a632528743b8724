"""Lossless cell records, stable hashing, code versions and the
content-addressed result store."""

import pytest

from repro.common.types import Scheme


class TestRunResultRoundTrip:
    def test_lossless_including_latency_percentiles(self, tiny_runner,
                                                    tiny_streaming):
        import json

        from repro.eval.results_io import (
            deserialize_run_result,
            serialize_run_result,
        )

        baseline = tiny_runner.baseline(tiny_streaming.name)
        result = tiny_runner.run(tiny_streaming.name, Scheme.SHM)
        # Through actual JSON text, as the store does.
        back = deserialize_run_result(
            json.loads(json.dumps(serialize_run_result(result)))
        )
        assert back.cycles == result.cycles
        assert back.instructions == result.instructions
        assert back.traffic == result.traffic
        assert back.readonly_stats == result.readonly_stats
        assert back.streaming_stats == result.streaming_stats
        assert back.l2 == result.l2
        # The histogram's sparse buckets survive, so percentiles do too.
        assert back.latency.p50 == result.latency.p50
        assert back.latency.p95 == result.latency.p95
        assert back.latency.p99 == result.latency.p99
        assert (back.normalized_ipc(baseline)
                == pytest.approx(result.normalized_ipc(baseline)))

    def test_format_version_mismatch_rejected(self, tiny_runner,
                                              tiny_streaming):
        from repro.eval.results_io import (
            deserialize_run_result,
            serialize_run_result,
        )

        data = serialize_run_result(
            tiny_runner.run(tiny_streaming.name, Scheme.SHM)
        )
        data["cell_format"] = 999
        with pytest.raises(ValueError):
            deserialize_run_result(data)

    def test_truncated_payload_rejected(self, tiny_runner, tiny_streaming):
        from repro.eval.results_io import (
            deserialize_run_result,
            serialize_run_result,
        )

        data = serialize_run_result(
            tiny_runner.run(tiny_streaming.name, Scheme.SHM)
        )
        del data["traffic"]
        with pytest.raises((KeyError, TypeError)):
            deserialize_run_result(data)


class TestStableHash:
    def test_deterministic_and_order_independent(self):
        from repro.eval.results_io import stable_hash

        a = stable_hash({"x": 1, "y": [1, 2]})
        b = stable_hash({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 40

    def test_config_changes_change_the_hash(self):
        from dataclasses import replace

        from repro.common.config import SimConfig
        from repro.eval.results_io import stable_hash

        base = SimConfig()
        varied = replace(
            base,
            mdc=replace(
                base.mdc,
                counter=replace(base.mdc.counter,
                                size_bytes=base.mdc.counter.size_bytes * 2),
            ),
        )
        assert stable_hash(base) != stable_hash(varied)


class TestCodeVersion:
    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        """A copy of the package outside git, with the cached version
        cleared: what ``code_version`` hashes is then this copy."""
        import shutil

        from repro.eval import results_io

        root = tmp_path / "repro"
        shutil.copytree(results_io._PACKAGE_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.delenv("REPRO_CODE_VERSION", raising=False)
        monkeypatch.setattr(results_io, "_PACKAGE_ROOT", root)
        monkeypatch.setattr(results_io, "_code_version", None)
        return root

    def test_source_edit_changes_the_version(self, package, monkeypatch):
        from repro.eval import results_io

        before = results_io.code_version()
        constants = package / "common" / "constants.py"
        constants.write_text(constants.read_text() + "\nDRAM_LATENCY = 999\n")
        monkeypatch.setattr(results_io, "_code_version", None)
        after = results_io.code_version()
        assert before != after
        # Without git the package version is the readable prefix.
        assert before.split("+")[0] == after.split("+")[0]

    def test_unchanged_sources_give_the_same_version(self, package,
                                                     monkeypatch):
        from repro.eval import results_io

        first = results_io.code_version()
        monkeypatch.setattr(results_io, "_code_version", None)
        assert results_io.code_version() == first

    def test_environment_override_wins(self, package, monkeypatch):
        from repro.eval import results_io

        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
        assert results_io.code_version() == "pinned"


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        from repro.eval.results_io import ResultStore

        store = ResultStore(tmp_path / "store")
        key = "ab" + "0" * 38
        store.put(key, {"payload": {"profile": {"x": 1.0}}})
        assert key in store
        assert len(store) == 1
        record = store.get(key)
        assert record["payload"] == {"profile": {"x": 1.0}}
        assert record["key"] == key

    def test_missing_key_returns_none(self, tmp_path):
        from repro.eval.results_io import ResultStore

        store = ResultStore(tmp_path / "store")
        assert store.get("cd" + "1" * 38) is None

    def test_corrupt_entry_quarantined_not_fatal(self, tmp_path):
        from repro.eval.results_io import ResultStore

        store = ResultStore(tmp_path / "store")
        key = "ef" + "2" * 38
        store.put(key, {"payload": {}})
        store._path(key).write_text("{ not json at all")
        assert store.get(key) is None          # corrupt reads never raise
        assert key not in store                # ... and the entry is gone
        assert f"{key}.json" in store.quarantined()  # parked for post-mortem
        # The store stays usable for that key afterwards.
        store.put(key, {"payload": {"ok": True}})
        assert store.get(key)["payload"] == {"ok": True}

    def test_truncated_entry_quarantined(self, tmp_path):
        from repro.eval.results_io import ResultStore

        store = ResultStore(tmp_path / "store")
        key = "0a" + "3" * 38
        store.put(key, {"payload": {}})
        path = store._path(key)
        path.write_text(path.read_text()[:10])
        assert store.get(key) is None
        assert f"{key}.json" in store.quarantined()

    def test_invalidate_removes_entry(self, tmp_path):
        from repro.eval.results_io import ResultStore

        store = ResultStore(tmp_path / "store")
        key = "1b" + "4" * 38
        store.put(key, {"payload": {}})
        store.invalidate(key)
        assert store.get(key) is None
        assert len(store) == 0
        store.invalidate(key)  # idempotent

    def test_keys_and_clear(self, tmp_path):
        from repro.eval.results_io import ResultStore

        store = ResultStore(tmp_path / "store")
        keys = {"2c" + "5" * 38, "3d" + "6" * 38}
        for key in keys:
            store.put(key, {"payload": {}})
        assert set(store.keys()) == keys
        store.clear()
        assert len(store) == 0
