"""Workload builder and validation."""

import pytest

from repro.common.types import MemorySpace
from repro.workloads.base import ALLOC_ALIGN, WorkloadBuilder
from repro.workloads import patterns as pat

KB = 1024


class TestAllocation:
    def test_alignment(self):
        b = WorkloadBuilder("t", 0.5)
        buf1 = b.alloc("a", 100)
        buf2 = b.alloc("b", 100)
        assert buf1.address % ALLOC_ALIGN == 0
        assert buf2.address % ALLOC_ALIGN == 0
        assert buf2.address >= buf1.address + buf1.size

    def test_alignment_keeps_local_regions_exclusive(self):
        """192 KB-aligned buffers map to 16 KB-aligned local offsets in
        every partition, so two buffers never share a detector region."""
        from repro.common.address import AddressMapper
        mapper = AddressMapper(12, 256)
        b = WorkloadBuilder("t", 0.5)
        buf1 = b.alloc("a", 200 * KB)
        buf2 = b.alloc("b", 200 * KB)
        for p in range(12):
            lo1, hi1 = mapper.local_span(buf1.address, buf1.size, p)
            lo2, hi2 = mapper.local_span(buf2.address, buf2.size, p)
            assert hi1 <= lo2  # disjoint
            assert lo1 % (16 * KB) == 0
            assert lo2 % (16 * KB) == 0

    def test_size_rounded_up(self):
        b = WorkloadBuilder("t", 0.5)
        buf = b.alloc("a", 1)
        assert buf.size == ALLOC_ALIGN


class TestKernels:
    def test_host_events_built(self):
        b = WorkloadBuilder("t", 0.5)
        data = b.alloc("in", 192 * KB)
        b.kernel("k0", pat.stream_read(data.address, data.size))
        b.kernel("k1", pat.stream_read(data.address, data.size),
                 copies=[data])
        w = b.build()
        assert not w.kernels[0].host_events
        assert w.kernels[1].host_events[0].kind == "copy"

    def test_reset_events(self):
        b = WorkloadBuilder("t", 0.5)
        data = b.alloc("in", 192 * KB)
        b.kernel("k0", pat.stream_read(data.address, data.size),
                 readonly_resets=[data])
        w = b.build()
        assert w.kernels[0].host_events[0].kind == "readonly_reset"

    def test_init_copies_only_host_init_buffers(self):
        b = WorkloadBuilder("t", 0.5)
        data = b.alloc("in", 192 * KB, host_init=True)
        out = b.alloc("out", 192 * KB, host_init=False)
        b.kernel("k0", pat.stream_read(data.address, data.size))
        w = b.build()
        starts = {e.start for e in w.init_copies()}
        assert data.address in starts
        assert out.address not in starts


class TestValidation:
    def test_out_of_buffer_access_rejected(self):
        b = WorkloadBuilder("t", 0.5)
        b.alloc("in", 192 * KB)
        b.kernel("k0", [(10 * (1 << 20), False, 4)])
        with pytest.raises(ValueError):
            b.build()

    def test_bad_utilization(self):
        with pytest.raises(ValueError):
            WorkloadBuilder("t", 0.0)
        with pytest.raises(ValueError):
            WorkloadBuilder("t", 1.5)


class TestWorkloadProperties:
    def test_counts(self):
        b = WorkloadBuilder("t", 0.5)
        data = b.alloc("in", 192 * KB)
        b.kernel("k0", pat.stream_read(data.address, data.size))
        w = b.build()
        assert w.total_accesses == 1536
        assert w.instructions == 1536 * w.instructions_per_access

    def test_spaces(self):
        b = WorkloadBuilder("t", 0.5)
        b.alloc("in", 192 * KB, space=MemorySpace.TEXTURE)
        c = b.alloc("c", 192 * KB, space=MemorySpace.CONSTANT)
        b.kernel("k0", pat.stream_read(c.address, c.size))
        w = b.build()
        assert MemorySpace.TEXTURE in w.spaces
        assert MemorySpace.CONSTANT in w.spaces
