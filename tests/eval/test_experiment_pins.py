"""Every registered experiment's default matrix, pinned.

Each experiment in :data:`repro.eval.experiments.EXPERIMENTS` expands
to a job matrix; a refactor of the job builders must not change which
cells an experiment runs or where their values land.  For every
experiment the default matrix at scale 0.1 is reduced to one sha256
over ``(experiment, series, kind, cell key)`` of each job, in order,
with the cell key taken at a fixed code version so the pins depend on
the matrix alone (``experiment_pins.json``).  Regenerate them with
``PYTHONPATH=src python -m tests.eval.test_experiment_pins`` only when
a change is meant to move an experiment's cells.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import SimConfig
from repro.eval.campaign import cell_key
from repro.eval.experiments import EXPERIMENTS

PINS_PATH = Path(__file__).with_name("experiment_pins.json")
SCALE = 0.1


def _digest(name: str) -> dict:
    jobs = EXPERIMENTS[name].jobs(None, SimConfig(), SCALE)
    rows = [[job.experiment, job.series, job.kind,
             cell_key(job, version="pin")] for job in jobs]
    return {"jobs": len(jobs),
            "sha256": hashlib.sha256(
                json.dumps(rows).encode()).hexdigest()}


def _digests() -> dict:
    return {name: _digest(name) for name in EXPERIMENTS}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def test_every_experiment_is_pinned(pins):
    assert sorted(EXPERIMENTS) == sorted(pins)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_matrix_matches_the_pin(name, pins):
    assert _digest(name) == pins[name]


if __name__ == "__main__":
    PINS_PATH.write_text(json.dumps(_digests(), indent=2, sort_keys=True)
                         + "\n")
    print(f"wrote {PINS_PATH}")
