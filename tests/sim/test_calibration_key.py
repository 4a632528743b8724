"""What a calibration reads: :func:`repro.sim.runner.calibration_key`.

Runners whose configs have equal keys share calibrations, so the key
must hold everything the unprotected calibration run depends on and
nothing it ignores.  The one discipline the key folds into FIFO is
``critical_first``: an unprotected run offers only demand data, which
that scheduler never defers, so the run must equal the FIFO run byte
for byte on real workloads, not just on hand-picked transfers.
"""

import dataclasses
import functools
import pickle

import pytest

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.eval.results_io import serialize_run_result
from repro.sim.gpu import GPUSimulator
from repro.sim.runner import GAP_EPSILON, Runner, calibration_key
from repro.workloads.compose import build_workload as build_composed
from repro.workloads.multitenant import contention_spec, phase_churn_spec
from repro.workloads.suite import BENCHMARK_NAMES, build

SCALE = 0.05
COMPOSED = {"mt4": contention_spec(), "mt4_churn50": phase_churn_spec(0.5)}


def _gpu(config, **changes):
    return dataclasses.replace(config,
                               gpu=dataclasses.replace(config.gpu, **changes))


def _detectors(config, **changes):
    detectors = dataclasses.replace(config.scheme.detectors, **changes)
    return dataclasses.replace(
        config, scheme=dataclasses.replace(config.scheme,
                                           detectors=detectors))


DEFAULT = SimConfig()
CRITICAL_FIRST = _gpu(DEFAULT, dram_scheduler="critical_first")
CRITICAL_FIRST_4 = _gpu(DEFAULT, dram_scheduler="critical_first",
                        dram_write_buffer=4)


@functools.lru_cache(maxsize=None)
def _workload(name):
    if name in COMPOSED:
        return build_composed(COMPOSED[name], scale=SCALE)
    return build(name, SCALE)


def _unprotected_run(config, workload, window):
    sim = GPUSimulator(config.with_scheme(Scheme.UNPROTECTED),
                       record_stream=True)
    result = sim.run(workload, gap=GAP_EPSILON, max_inflight=window)
    return serialize_run_result(result), sim.streams


class TestUnprotectedRunsIgnoreCriticalFirst:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES + sorted(COMPOSED))
    def test_critical_first_equals_fifo(self, name):
        workload = _workload(name)
        for window in (64, 512):
            fifo = _unprotected_run(DEFAULT, workload, window)
            assert fifo[1], "the run recorded no stream"
            for config in (CRITICAL_FIRST, CRITICAL_FIRST_4):
                assert _unprotected_run(config, workload, window) == fifo


class TestCalibrationKey:
    @pytest.mark.parametrize("config", [
        CRITICAL_FIRST,
        CRITICAL_FIRST_4,
        _detectors(DEFAULT, num_trackers=DEFAULT.scheme.detectors
                   .num_trackers * 2, readonly_entries=64, stream_entries=64),
        DEFAULT.with_scheme(Scheme.PSSM),
    ], ids=["critical_first", "critical_first-buffer-4", "detector-sizing",
            "scheme"])
    def test_configs_the_calibration_ignores_share_the_key(self, config):
        assert calibration_key(config) == calibration_key(DEFAULT)

    @pytest.mark.parametrize("config", [
        _gpu(DEFAULT, dram_scheduler="banked"),
        _gpu(DEFAULT, l2_bank_size=DEFAULT.gpu.l2_bank_size * 2),
        _detectors(DEFAULT, readonly_region_size=DEFAULT.scheme.detectors
                   .readonly_region_size * 2),
        _detectors(DEFAULT, stream_chunk_size=DEFAULT.scheme.detectors
                   .stream_chunk_size * 2),
    ], ids=["banked", "l2_bank_size", "readonly_region_size",
            "stream_chunk_size"])
    def test_what_the_calibration_reads_changes_the_key(self, config):
        assert calibration_key(config) != calibration_key(DEFAULT)

    @pytest.mark.parametrize("config", [CRITICAL_FIRST, CRITICAL_FIRST_4],
                             ids=["critical_first", "critical_first-buffer-4"])
    def test_critical_first_runner_calibrates_as_the_fifo_runner(self,
                                                                 config):
        fifo = Runner(scale=SCALE).calibration("atax")
        critical_first = Runner(config=config,
                                scale=SCALE).calibration("atax")
        assert (pickle.dumps(critical_first, pickle.HIGHEST_PROTOCOL)
                == pickle.dumps(fifo, pickle.HIGHEST_PROTOCOL))
