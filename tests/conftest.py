"""Shared fixtures: tiny workloads, a session-scoped runner, registry
hygiene, the per-access reference drive of the batch loop, a recording
DRAM channel for standalone MEEs and a recording placement for
standalone metadata caches."""

import contextlib
from collections import namedtuple

import pytest

from repro.common.types import TrafficCounters
from repro.core.policies.registry import SCHEME_REGISTRY
from repro.memory.dram import DRAMChannel
from repro.sim.pipeline import MemoryPipeline
from repro.sim.runner import Runner
from repro.workloads import patterns as pat
from repro.workloads.base import WorkloadBuilder


@pytest.fixture(autouse=True)
def _scheme_registry_hygiene():
    """Snapshot/restore the scheme registry around every test.

    A test that registers a scheme and fails (or simply forgets to
    unregister) used to leak the entry into every later test in the
    process — and a ``replace=True`` shadow of a built-in followed by
    ``unregister_scheme`` once deleted the built-in outright.  The
    snapshot makes such leaks impossible to propagate.
    """
    snapshot = dict(SCHEME_REGISTRY)
    yield
    SCHEME_REGISTRY.clear()
    SCHEME_REGISTRY.update(snapshot)


def _per_access_run_batch(pipeline, window, accesses, latency):
    """What ``MemoryPipeline.run_batch`` fuses, one access at a time."""
    for addr, is_write, nsectors in accesses:
        issue = window.issue()
        completion = pipeline.access(issue, addr, is_write, nsectors)
        if not is_write:
            latency.record(completion - issue)
        window.complete(completion)


@pytest.fixture
def reference_drive():
    """A context manager under which every (unobserved) simulation runs
    through :meth:`MemoryPipeline.access` one access at a time instead
    of the fused batch loop — the reference the batch loop must match
    byte for byte."""
    @contextlib.contextmanager
    def drive():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MemoryPipeline, "run_batch", _per_access_run_batch)
            yield

    return drive


#: One DRAM transfer as a :class:`RecordingChannel` saw it.
Transfer = namedtuple("Transfer",
                      "partition size is_write kind critical address")


class RecordingChannel(DRAMChannel):
    """A FIFO DRAM channel that logs every transfer placed on it.

    The MEE places every transfer through :meth:`service`, which
    appends a :class:`Transfer` to the shared ``log`` and then serves
    it."""

    def __init__(self, partition: int, log: list) -> None:
        super().__init__(partition=partition)
        self.log = log

    def service(self, arrival, size, is_write=False, address=-1,
                kind="data", critical=False):
        self.log.append(Transfer(self.partition, size, is_write, kind,
                                 critical, address))
        return super().service(arrival, size, is_write, address, kind,
                               critical)


def record_transfers(mee) -> list:
    """Wire a standalone MEE to one recording channel per partition and
    fresh traffic counters; returns the shared transfer log."""
    log: list = []
    partitions = mee.config.gpu.num_partitions
    mee.attach_channels([RecordingChannel(p, log) for p in range(partitions)],
                        TrafficCounters())
    return log


#: One metadata transfer as :class:`MetadataCaches` handed it to its
#: placement.
Placed = namedtuple("Placed", "kind line_key size is_write critical booked")


class RecordingPlace(list):
    """A ``place`` for standalone :class:`MetadataCaches`: logs each
    transfer it is handed as a :class:`Placed` and completes it at 0."""

    def __call__(self, kind, line_key, size, is_write, critical,
                 booked=None) -> float:
        self.append(Placed(kind, line_key, size, is_write, critical, booked))
        return 0.0


def placed(entry, *args) -> list:
    """Call one entry point of a recorded MEE (a bound method such as
    ``mee.on_read_miss``) and return the transfers it placed, in order."""
    log = entry.__self__._channels[0].log
    start = len(log)
    entry(*args)
    return log[start:]


KB = 1024
MB = 1024 * 1024


def build_tiny_streaming(name="tiny-stream", utilization=0.6):
    """A small streaming workload: read-only input, streamed output."""
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=7)
    data = b.alloc("input", 768 * KB)
    out = b.alloc("output", 192 * KB, host_init=False)
    trace = pat.interleave(b.rng, [
        pat.stream_read(data.address, data.size),
        pat.stream_write(out.address, 96 * KB),
    ])
    b.kernel("k0", trace)
    return b.build()


def build_tiny_random(name="tiny-random", utilization=0.4):
    """A small random read/write workload."""
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=11)
    data = b.alloc("table", 1536 * KB)
    scratch = b.alloc("scratch", 768 * KB, host_init=False)
    trace = pat.interleave(b.rng, [
        pat.random_read(b.rng, data.address, data.size, 4000),
        pat.random_write(b.rng, scratch.address, scratch.size, 2000),
    ])
    b.kernel("k0", trace)
    return b.build()


def build_tiny_multikernel(name="tiny-multi", utilization=0.5):
    """Two kernels; the input region is re-copied before kernel 1."""
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=13)
    data = b.alloc("input", 384 * KB)
    out = b.alloc("out", 192 * KB, host_init=False)
    k0 = pat.interleave(b.rng, [
        pat.stream_read(data.address, data.size),
        pat.stream_write(out.address, 48 * KB),
    ])
    b.kernel("k0", k0)
    k1 = pat.interleave(b.rng, [
        pat.stream_read(data.address, data.size),
        pat.stream_write(out.address, 48 * KB),
    ])
    b.kernel("k1", k1, copies=[data])
    return b.build()


@pytest.fixture(scope="session")
def tiny_streaming():
    return build_tiny_streaming()


@pytest.fixture(scope="session")
def tiny_random():
    return build_tiny_random()


@pytest.fixture(scope="session")
def tiny_multikernel():
    return build_tiny_multikernel()


@pytest.fixture(scope="session")
def tiny_runner(tiny_streaming, tiny_random, tiny_multikernel):
    """A runner with the tiny workloads registered (cached per session)."""
    runner = Runner()
    runner.add_workload(tiny_streaming)
    runner.add_workload(tiny_random)
    runner.add_workload(tiny_multikernel)
    return runner


@pytest.fixture(scope="session")
def suite_runner():
    """A down-scaled suite runner for integration tests."""
    return Runner(scale=0.1)
