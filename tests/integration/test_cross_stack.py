"""Consistency between the traffic model and the functional model.

The simulator charges traffic for operations the cryptographic stack
actually needs; these tests pin the two stacks to the same decisions
for the read-only design, where divergence would be a soundness bug
(e.g. the traffic model skipping counters the functional model needs).
"""

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.api import SecureGPUContext
from repro.core.mee import MemoryEncryptionEngine
from repro.metadata.counters import SharedCounter
from tests.conftest import placed, record_transfers

KB = 1024


def make_mee(scheme=Scheme.SHM_READONLY):
    config = SimConfig().with_scheme(scheme)
    mapper = AddressMapper(config.gpu.num_partitions,
                           config.gpu.interleave_bytes)
    mee = MemoryEncryptionEngine(0, config, mapper, SharedCounter())
    record_transfers(mee)
    return mee


class TestReadOnlyAgreement:
    """Both stacks must agree on when the shared counter applies."""

    def test_host_initialised_range_is_shared_counter_in_both(self):
        # Functional side.
        ctx = SecureGPUContext(memory_bytes=1 << 20)
        buf = ctx.alloc("in", 64 * KB)
        ctx.memcpy_h2d(buf, bytes(64 * KB), read_only=True)
        assert ctx.device.is_read_only(buf.address)
        # Traffic side (same footprint, partition-local view).
        mee = make_mee()
        mee.on_host_copy(0, 64 * KB, at_init=True)
        res = placed(mee.on_read_miss, 0, 0, 0)
        assert not any(r.kind in ("ctr", "bmt") for r in res)

    def test_write_transitions_both_stacks(self):
        ctx = SecureGPUContext(memory_bytes=1 << 20)
        buf = ctx.alloc("in", 64 * KB)
        ctx.memcpy_h2d(buf, bytes(64 * KB), read_only=True)
        ctx.write(buf.address, b"\x01" * 128)
        assert not ctx.device.is_read_only(buf.address)

        mee = make_mee()
        mee.on_host_copy(0, 64 * KB, at_init=True)
        mee.on_writeback(0, 0, 0)
        assert not mee.readonly.predict(0)
        # Subsequent reads pay counter traffic in the traffic model...
        res = placed(mee.on_read_miss, 1, 128, 128)
        paid_counters = any(r.kind == "ctr" for r in res) or \
            mee.caches.counter.hits > 0
        assert paid_counters
        # ...matching the functional model's per-block counters, whose
        # freshness is now BMT-protected (see
        # TestReadOnlyDesign.test_transitioned_region_gains_freshness).

    def test_reset_api_raises_shared_counter_in_both(self):
        ctx = SecureGPUContext(memory_bytes=1 << 20)
        buf = ctx.alloc("in", 64 * KB)
        ctx.memcpy_h2d(buf, bytes(64 * KB), read_only=True)
        ctx.write(buf.address, b"\x01" * 128)
        functional_before = ctx.device.shared_counter
        ctx.input_read_only_reset(buf)
        assert ctx.device.shared_counter > functional_before

        mee = make_mee()
        mee.on_host_copy(0, 64 * KB, at_init=True)
        mee.on_writeback(0, 0, 0)
        traffic_before = mee.shared_counter.value
        mee.input_read_only_reset(0, 64 * KB)
        assert mee.shared_counter.value > traffic_before


class TestMACGranularityAgreement:
    def test_chunk_mac_verifies_exactly_what_the_traffic_model_charges(self):
        """A chunk MAC fetched once covers the 32 block MACs the
        functional chunk_mac() is computed over."""
        from repro.crypto.mac import MACEngine

        engine = MACEngine(b"k" * 16)
        block_macs = [
            engine.block_mac(bytes([i]) * 128, i * 128, 0, 0)
            for i in range(constants.BLOCKS_PER_CHUNK)
        ]
        cmac = engine.chunk_mac(block_macs)
        assert engine.verify_chunk(block_macs, cmac)
        # The traffic model charges one 8 B MAC per 4 KB chunk: the
        # functional object is exactly 8 bytes.
        assert len(cmac) == constants.MAC_SIZE

    def test_seed_components_match_layout_coverage(self):
        """The counter the functional device uses for a block is the
        one the traffic model's counter sector covers."""
        from repro.metadata import layout

        for block in (0, 31, 32, 127, 128, 1000):
            line = layout.counter_line(block)
            # The functional device's counter-line granularity.
            from repro.core.functional import SecureMemoryDevice
            from repro.crypto.keys import KeyGenerator

            device = SecureMemoryDevice(KeyGenerator().context_keys(0),
                                        size_bytes=1 << 20)
            fn_line, _ = device._counter_line_of(block)
            assert fn_line == line
