"""Bit-level determinism of simulation results.

Two guarantees, both load-bearing for the content-addressed result
store and the golden-output equivalence suite:

* the same (config, workload, scheme) simulated twice — on fresh
  runners — serialises identically;
* a cell executed in a worker process (the campaign pool path) equals
  the same cell executed in-process (the serial path).

The second historically failed for ``shm_vl2``: victim-cache lines are
keyed by tuples containing strings, and built-in ``hash()`` is salted
per process (PYTHONHASHSEED), so set indexing differed between the
parent and pool workers.  ``repro.memory.cache.stable_hash`` fixes
that; these tests keep it fixed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.eval.campaign import JobSpec, _cell_worker, run_cells_serial
from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner

SCALE = 0.05

#: shm_vl2 exercises the victim cache (string-keyed lines), shm the
#: detector stack — the two paths where hidden state could leak in.
CASES = [("backprop", Scheme.SHM_VL2), ("atax", Scheme.SHM)]


@pytest.mark.parametrize("workload,scheme", CASES)
def test_fresh_runners_agree(workload, scheme):
    first = serialize_run_result(Runner(scale=SCALE).run(workload, scheme))
    second = serialize_run_result(Runner(scale=SCALE).run(workload, scheme))
    assert first == second


@pytest.mark.parametrize("workload,scheme", CASES)
def test_serial_and_pool_cells_agree(workload, scheme):
    job = JobSpec(experiment="determinism", workload=workload,
                  scheme=scheme.value, scale=SCALE, config=SimConfig())

    serial = run_cells_serial(Runner(config=job.config, scale=SCALE), [job])
    assert serial[0].ok
    serial_cell = serialize_run_result(serial[0].result)

    with ProcessPoolExecutor(max_workers=1) as pool:
        pooled = pool.submit(_cell_worker, job).result(timeout=300)
    assert pooled["result"] == serial_cell


def test_stable_hash_survives_hash_randomization():
    """``stable_hash`` of a victim-cache-style key must not depend on
    the interpreter's per-process string-hash salt."""
    snippet = ("from repro.memory.cache import stable_hash; "
               "print(stable_hash(('v', ('mac', 123))))")
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", snippet], env=env,
                             capture_output=True, text=True, check=True)
        outputs.add(out.stdout.strip())
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# Manifest determinism: once the fields that say how and how fast a
# campaign ran are dropped, its manifest must be identical across
# execution modes and hash seeds — otherwise manifest diffs are noise,
# not signal.
# ---------------------------------------------------------------------------

def _profile_specs():
    from repro.eval.campaign import (ExperimentResult, ExperimentSpec,
                                     JobSpec)

    def jobs(_workloads, config, scale):
        return [JobSpec(experiment="det", workload=name, kind="profile",
                        scheme=Scheme.SHM.value, series="p",
                        scale=scale, config=config)
                for name in ("atax", "mvt")]

    def aggregate(records):
        result = ExperimentResult("det")
        for rec in records:
            result.series.setdefault("p", {})[rec.job.workload] = \
                rec.profile["streaming_ratio"]
        return result

    return {"det": ExperimentSpec(name="det", title="t", provenance="t",
                                  jobs=jobs, aggregate=aggregate)}


#: Manifest fields that vary with the host and the execution mode.
VOLATILE_FIELDS = ("elapsed_seconds", "jobs", "metrics", "store")


def stable_manifest(manifest):
    """``manifest`` without its volatile fields (per-cell ``runtime_s``
    included)."""
    out = {k: v for k, v in manifest.items() if k not in VOLATILE_FIELDS}
    out["experiments"] = {
        name: dict(entry, cells=[
            {k: v for k, v in cell.items() if k != "runtime_s"}
            for cell in entry["cells"]])
        for name, entry in manifest["experiments"].items()}
    return out


class TestManifestDeterminism:
    def test_in_process_and_pool_manifests_agree(self):
        from repro.eval.campaign import run_campaign

        in_process, pool = (
            run_campaign(["det"], scale=SCALE, specs=_profile_specs(),
                         jobs=jobs).manifest
            for jobs in (1, 2))
        assert pool["jobs"] == 2
        assert stable_manifest(in_process) == stable_manifest(pool)
        assert set(pool["experiments"]["det"]["series"]["p"]) == {
            "atax", "mvt"}

    def test_pool_manifest_survives_hash_randomization(self):
        """The same pool campaign under different PYTHONHASHSEEDs
        writes the same manifest."""
        snippet = (
            "import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tests.sim.test_determinism import (SCALE, _profile_specs,\n"
            "                                        stable_manifest)\n"
            "from repro.eval.campaign import run_campaign\n"
            "report = run_campaign(['det'], scale=SCALE, jobs=2,\n"
            "                      specs=_profile_specs())\n"
            "print(json.dumps(stable_manifest(report.manifest),\n"
            "                 sort_keys=True))\n"
        )
        repo_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        outputs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run(
                [sys.executable, "-c", snippet, repo_root], env=env,
                capture_output=True, text=True, check=True, timeout=300)
            outputs.add(out.stdout)
        assert len(outputs) == 1
        assert '"series"' in next(iter(outputs))


# ---------------------------------------------------------------------------
# Decision-ledger determinism: the canonical JSONL export must be
# byte-identical between the batch loop and the per-access reference
# drive, across the serial and pool campaign paths, and across hash
# seeds — it is the provenance record campaign cells carry into the
# manifest.
# ---------------------------------------------------------------------------

class TestDecisionLedgerDeterminism:
    def test_export_identical_across_cores(self, tmp_path, reference_drive):
        from repro.obs.decisions import DecisionLedger

        def export(path):
            ledger = DecisionLedger()
            runner = Runner(scale=SCALE, ledger=ledger)
            for workload, scheme in CASES:
                runner.run(workload, scheme)
            ledger.write_jsonl(path)
            return path.read_bytes()

        batch = export(tmp_path / "batch.jsonl")
        with reference_drive():
            reference = export(tmp_path / "reference.jsonl")
        assert batch == reference

    def test_serial_and_pool_cell_decisions_agree(self):
        from dataclasses import replace as dc_replace

        job = dc_replace(
            JobSpec(experiment="determinism", workload="atax",
                    scheme=Scheme.SHM.value, scale=SCALE,
                    config=SimConfig()),
            collect_decisions=True)

        serial = run_cells_serial(Runner(config=job.config, scale=SCALE),
                                  [job])
        assert serial[0].ok
        summary = serial[0].decisions
        assert summary and summary["total"] > 0

        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_cell_worker, job).result(timeout=300)
        assert pooled["decisions"] == summary

    def test_ledger_export_survives_hash_randomization(self):
        """The same instrumented run under different PYTHONHASHSEEDs
        exports byte-identical decision rows."""
        snippet = (
            "import sys\n"
            "from repro.obs.decisions import DecisionLedger\n"
            "from repro.sim.runner import Runner\n"
            "ledger = DecisionLedger()\n"
            "runner = Runner(scale=0.05, ledger=ledger)\n"
            "runner.run('atax', 'shm')\n"
            "sys.stdout.write(ledger.export_text())\n"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", snippet], env=env,
                                 capture_output=True, text=True,
                                 check=True, timeout=300)
            outputs.add(out.stdout)
        assert len(outputs) == 1
        assert "stream_verdict" in next(iter(outputs))


# ---------------------------------------------------------------------------
# Learned-policy determinism: the learned schemes train on plain
# floats and draw exploration from crc32 — no ``random`` state, no
# ``hash()`` — so their runs (and provenance exports) must be
# byte-identical between the batch loop and the per-access reference
# drive, across the serial and pool campaign paths, and across hash
# seeds.  backprop concentrates traffic on few enough
# regions that the bandit's epochs actually close at this scale.
# ---------------------------------------------------------------------------

LEARNED_CASES = [("backprop", "pssm_learned"), ("backprop", "shm_bandit")]


class TestLearnedPolicyDeterminism:
    @pytest.mark.parametrize("workload,scheme", LEARNED_CASES)
    def test_export_identical_across_cores(self, workload, scheme,
                                           tmp_path, reference_drive):
        from repro.obs.decisions import DecisionLedger

        def export(path):
            ledger = DecisionLedger()
            runner = Runner(scale=SCALE, ledger=ledger)
            result = serialize_run_result(runner.run(workload, scheme))
            ledger.write_jsonl(path)
            return result, path.read_bytes()

        batch = export(tmp_path / "batch.jsonl")
        with reference_drive():
            reference = export(tmp_path / "reference.jsonl")
        assert batch == reference

    @pytest.mark.parametrize("workload,scheme", LEARNED_CASES)
    def test_serial_and_pool_cells_agree(self, workload, scheme):
        from dataclasses import replace as dc_replace

        job = dc_replace(
            JobSpec(experiment="determinism", workload=workload,
                    scheme=scheme, scale=SCALE, config=SimConfig()),
            collect_decisions=True)

        serial = run_cells_serial(Runner(config=job.config, scale=SCALE),
                                  [job])
        assert serial[0].ok
        assert serial[0].decisions and serial[0].decisions["total"] > 0

        # The worker imports repro.core.policies afresh: the learned
        # registrations must be there without any campaign-side setup.
        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_cell_worker, job).result(timeout=300)
        assert pooled["result"] == serialize_run_result(serial[0].result)
        assert pooled["decisions"] == serial[0].decisions

    def test_learned_export_survives_hash_randomization(self):
        """One learned run of each family under different
        PYTHONHASHSEEDs exports byte-identical decision rows."""
        snippet = (
            "import sys\n"
            "from repro.obs.decisions import DecisionLedger\n"
            "from repro.sim.runner import Runner\n"
            "ledger = DecisionLedger()\n"
            "runner = Runner(scale=0.05, ledger=ledger)\n"
            "runner.run('backprop', 'pssm_learned')\n"
            "runner.run('backprop', 'shm_bandit')\n"
            "sys.stdout.write(ledger.export_text())\n"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            out = subprocess.run([sys.executable, "-c", snippet], env=env,
                                 capture_output=True, text=True,
                                 check=True, timeout=300)
            outputs.add(out.stdout)
        assert len(outputs) == 1
        export = next(iter(outputs))
        assert "learned_verdict" in export
        assert "arm_select" in export
