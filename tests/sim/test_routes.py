"""The routes :func:`~repro.memory.l2.resolve_l2` records against the
per-access translation of :meth:`MemoryPipeline.access`.

A replayed run reads each access's home L2 bank, direction and clamped
sector range from its resolved route code, and maps a line to its
partition-local offset only at a read miss.  Over generated topologies
(partition count, banks per partition, interleave granularity) and
accesses that straddle interleave and partition boundaries, the
decoded route must be what :meth:`MemoryPipeline.access` computes from
:meth:`AddressMapper.to_local` and :meth:`PartitionL2.bank_for`, and
so must every read miss the replay issues.  A replayed run must not
translate an address at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import GPUConfig, SimConfig
from repro.eval.results_io import serialize_run_result
from repro.memory.l2 import PartitionL2, resolve_l2
from repro.sim.gpu import GPUSimulator
from repro.sim.runner import Runner
from repro.workloads.base import Buffer, Kernel, Workload

BLOCK = constants.BLOCK_SIZE


@st.composite
def _topology_and_accesses(draw):
    gpu = GPUConfig(num_partitions=draw(st.integers(1, 16)),
                    l2_banks_per_partition=draw(st.integers(1, 4)),
                    interleave_bytes=128 << draw(st.integers(0, 5)))
    interleave = gpu.interleave_bytes
    # An interleave chunk of some round over the partitions, and an
    # offset in it that favours the chunk's first and last sectors.
    address = st.builds(
        lambda round_, chunk, offset: (
            (round_ * gpu.num_partitions + chunk) * interleave + offset),
        st.integers(0, 64),
        st.integers(0, gpu.num_partitions - 1),
        st.one_of(st.integers(0, interleave - 1),
                  st.sampled_from([0, constants.SECTOR_SIZE,
                                   interleave - constants.SECTOR_SIZE,
                                   interleave - 1])))
    access = st.tuples(address, st.booleans(),
                       st.integers(0, constants.SECTORS_PER_BLOCK + 2))
    kernels = draw(st.lists(st.lists(access, max_size=24), min_size=1,
                            max_size=3))
    return gpu, kernels


def _workload(kernels) -> Workload:
    end = max((addr for accesses in kernels for addr, _, _ in accesses),
              default=0)
    return Workload(
        name="routes",
        kernels=[Kernel(f"k{i}", accesses)
                 for i, accesses in enumerate(kernels)],
        buffers=[Buffer("data", 0, end + BLOCK)],
        bandwidth_utilization=0.5,
    )


def _translated(sim: GPUSimulator, addr: int) -> tuple:
    """What :meth:`MemoryPipeline.access` maps ``addr`` to: its line
    address and key, partition, partition-local offset and home bank's
    MSHR file."""
    line_addr = addr - addr % BLOCK
    line_key = line_addr // BLOCK
    local = sim.mapper.to_local(line_addr)
    mshr = sim.l2[local.partition].bank_for(line_key).mshr
    return line_addr, line_key, local.partition, local.offset, mshr


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_topology_and_accesses())
def test_recorded_routes_decode_to_the_per_access_translation(case):
    gpu, kernels = case
    workload = _workload(kernels)
    resolved = resolve_l2(workload, gpu)
    sim = GPUSimulator(SimConfig(gpu=gpu).with_scheme("unprotected"))
    pipeline = sim.pipeline
    pipeline.replay(resolved)
    accesses = [access for kernel in kernels for access in kernel]
    assert len(resolved.routes) == len(resolved.lines) == len(accesses)
    for (addr, is_write, nsectors), code, line_key in zip(
            accesses, resolved.routes, resolved.lines):
        line_addr, key, partition, _, mshr = _translated(sim, addr)
        first = (addr % BLOCK) // constants.SECTOR_SIZE
        last = min(first + nsectors, constants.SECTORS_PER_BLOCK)
        mask = ((1 << (last - first)) - 1) << first
        route = pipeline._routes[code]
        assert line_key == key
        assert route[:5] == (is_write, partition, first, last, mask)
        assert route[5] is mshr

    # Every read miss of the replay maps its line as access() does.
    misses = []
    read_miss = pipeline._read_miss

    def spy(issue, partition, line_addr, line_key, local_offset,
            fetch_mask, mshr):
        misses.append(line_addr)
        assert (line_addr, line_key, partition, local_offset, mshr) \
            == _translated(sim, line_addr)
        return read_miss(issue, partition, line_addr, line_key,
                         local_offset, fetch_mask, mshr)

    pipeline._read_miss = spy
    sim.run(workload, max_inflight=8, resolved=resolved)
    assert len(misses) == pipeline.l2_stats.misses


@pytest.mark.parametrize("scheme", ["unprotected", "shm"])
def test_a_replayed_run_translates_nothing(scheme, monkeypatch):
    runner = Runner(scale=0.05)
    runner.calibration("atax")
    expected = serialize_run_result(runner.simulate("atax", scheme))

    def translate(*_args):
        raise AssertionError("a replayed run translated an address")

    monkeypatch.setattr(PartitionL2, "bank_for", translate)
    monkeypatch.setattr(AddressMapper, "to_local", translate)
    assert serialize_run_result(runner.simulate("atax", scheme)) == expected



def test_a_negative_sector_count_is_refused():
    """A route code has no room for a range that ends before it starts."""
    workload = _workload([[(0, False, 2), (BLOCK, False, -1)]])
    with pytest.raises(ValueError, match="-1 sectors"):
        resolve_l2(workload, GPUConfig())
