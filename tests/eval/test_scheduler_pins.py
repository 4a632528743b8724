"""The DRAM-scheduler ablation, pinned cell by cell.

The golden oracle covers FIFO runs only, so a change to how the
``critical_first`` or ``banked`` cells calibrate or run would show
nowhere but the benchmark digest.  Every ``ablation_dram_scheduler``
cell on atax and bfs at scale 0.05 is therefore pinned to a sha256 of
its serialized result and baseline (``scheduler_pins.json``), and both
the serial path and an in-process campaign must reproduce the pins.
Regenerate them with ``PYTHONPATH=src python -m
tests.eval.test_scheduler_pins`` only when a change is meant to move
these results.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import SimConfig
from repro.eval.campaign import run_campaign, run_cells_serial
from repro.eval.experiments import EXPERIMENTS
from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner

PINS_PATH = Path(__file__).with_name("scheduler_pins.json")
EXPERIMENT = "ablation_dram_scheduler"
WORKLOADS = ["atax", "bfs"]
SCALE = 0.05


def _digest(record) -> str:
    cell = {"result": serialize_run_result(record.result),
            "baseline": serialize_run_result(record.baseline)}
    return hashlib.sha256(
        json.dumps(cell, sort_keys=True).encode()).hexdigest()


def _serial_records() -> list:
    config = SimConfig()
    return run_cells_serial(
        Runner(config=config, scale=SCALE),
        EXPERIMENTS[EXPERIMENT].jobs(WORKLOADS, config, SCALE), strict=False)


def _in_process_records() -> list:
    report = run_campaign([EXPERIMENT], workloads=WORKLOADS, scale=SCALE,
                          jobs=1)
    return report.records[EXPERIMENT]


def _digests(records) -> dict:
    """``"<scheduler>/<workload>"`` -> digest of every cell."""
    assert all(rec.ok for rec in records)
    return {f"{rec.job.series}/{rec.job.workload}": _digest(rec)
            for rec in records}


@pytest.mark.parametrize("run", [_serial_records, _in_process_records],
                         ids=["serial", "in-process-pool"])
def test_cells_match_the_pins(run):
    assert _digests(run()) == json.loads(PINS_PATH.read_text())


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(_digests(_serial_records()), indent=2,
                                    sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
