"""The resolved-L2 replay against the live per-access reference, on
generated workloads.

A run whose scheme parks no metadata in the L2 replays the outcomes
:func:`~repro.memory.l2.resolve_l2` computed for its workload; the
``reference_drive`` walks the live L2 one access at a time through
:meth:`MemoryPipeline.access`.  The generated workloads mix reads and
writes, sector counts that overrun the block end, zero-access kernels
and a small pool of repeated lines.  They run on a GPU whose L2 banks
hold two data lines each, so dirty lines are evicted, and a line is
re-read while the fill of its evicted copy is still in flight: those
sectors are not resident, yet they must merge into the fill rather
than fetch again.  ``shm_vl2`` keeps the live L2 on both sides and
rides along as the control.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common import constants
from repro.common.config import GPUConfig, SimConfig
from repro.eval.results_io import serialize_run_result
from repro.memory.l2 import DIRTY_VICTIM, resolve_l2
from repro.sim.gpu import GPUSimulator
from repro.sim.runner import Runner
from repro.workloads.base import Buffer, Kernel, Workload

SCHEMES = ["unprotected", "pssm", "shm", "shm_upper_bound", "shm_vl2"]

#: Two partitions of two banks, four sets of two ways per bank.  Each
#: bank's data lines fall in one of its sets (bank, set and partition
#: are all read from the low bits of the line number), so it holds two
#: of them; victim metadata lines spread over the other sets.
TINY_GPU = GPUConfig(num_partitions=2,
                     l2_bank_size=4 * 2 * constants.BLOCK_SIZE, l2_ways=2,
                     l2_mshr_entries=8)
#: Distinct lines the generated accesses touch.
LINES = 24

_access = st.tuples(
    st.integers(0, LINES - 1),                       # line
    st.integers(0, constants.SECTORS_PER_BLOCK - 1),  # first sector
    st.booleans(),                                   # is_write
    st.integers(0, constants.SECTORS_PER_BLOCK + 1),  # nsectors
)
_kernels = st.lists(st.lists(_access, max_size=48), min_size=1, max_size=4)


def _workload(kernels) -> Workload:
    buffer = Buffer("data", 0, LINES * constants.BLOCK_SIZE)
    return Workload(
        name="generated",
        kernels=[Kernel(f"k{i}", [
            (line * constants.BLOCK_SIZE + first * constants.SECTOR_SIZE,
             is_write, nsectors)
            for line, first, is_write, nsectors in accesses])
            for i, accesses in enumerate(kernels)],
        buffers=[buffer],
        bandwidth_utilization=0.5,
    )


def _runs(workload: Workload) -> list:
    runner = Runner(config=SimConfig(gpu=TINY_GPU))
    runner.add_workload(workload)
    return [serialize_run_result(runner.simulate(workload.name, scheme))
            for scheme in SCHEMES]


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_kernels)
def test_replay_matches_the_live_reference(reference_drive, kernels):
    workload = _workload(kernels)
    plain = _runs(workload)
    with reference_drive():
        reference = _runs(workload)
    for scheme, ran, expected in zip(SCHEMES, plain, reference):
        assert ran == expected, scheme


def test_the_tiny_l2_evicts_dirty_lines_and_merges_into_evicted_fills():
    """The corner cases the generated workloads aim at do occur: a
    write displaces a dirty line, and a read of a line whose previous
    copy was evicted with its fill still in flight merges into that
    fill, so it issues no DRAM fetch."""
    line = constants.BLOCK_SIZE
    # Lines 0, 8 and 16 share partition 0's bank 0 (two data ways).
    accesses = [(0, True, 4), (8 * line, True, 4), (16 * line, True, 4),
                (0, False, 2), (8 * line, False, 2), (16 * line, False, 2),
                (0, False, 2)]
    workload = _workload([[(a // line, 0, w, n) for a, w, n in accesses]])
    resolved = resolve_l2(workload, TINY_GPU)
    assert resolved.outcomes[2] & DIRTY_VICTIM
    assert resolved.outcomes[-1] & ~DIRTY_VICTIM == 0  # not resident
    config = SimConfig(gpu=TINY_GPU).with_scheme("unprotected")
    result = GPUSimulator(config).run(workload, max_inflight=64)
    # Reads 4-6 miss; the last read finds line 0 evicted but merges.
    assert result.l2.misses == 3
