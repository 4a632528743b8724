"""Stateful MACs and the Section III-C birthday-bound arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.mac import (
    MACEngine,
    collision_resistance_updates,
    minimum_mac_bits,
)


@pytest.fixture
def engine():
    return MACEngine(b"i" * 16)


class TestBlockMAC:
    def test_mac_size_default_8_bytes(self, engine):
        mac = engine.block_mac(b"c" * 128, 0x100, 1, 2)
        assert len(mac) == 8

    def test_verify_accepts_genuine(self, engine):
        ct = bytes(range(128))
        mac = engine.block_mac(ct, 0x80, 3, 4)
        assert engine.verify_block(ct, 0x80, 3, 4, mac)

    def test_verify_rejects_tampered_ciphertext(self, engine):
        ct = bytearray(range(128))
        mac = engine.block_mac(bytes(ct), 0x80, 3, 4)
        ct[0] ^= 1
        assert not engine.verify_block(bytes(ct), 0x80, 3, 4, mac)

    def test_verify_rejects_wrong_address(self, engine):
        # Spatial binding: a block moved to another address fails.
        ct = bytes(128)
        mac = engine.block_mac(ct, 0x80, 0, 0)
        assert not engine.verify_block(ct, 0x100, 0, 0, mac)

    def test_verify_rejects_stale_counter(self, engine):
        # Stateful MAC: replaying an old (ct, mac) after the counter
        # moved on fails - this is the anti-replay role of the state.
        ct = bytes(128)
        mac = engine.block_mac(ct, 0x80, 1, 5)
        assert not engine.verify_block(ct, 0x80, 1, 6, mac)

    def test_keyed(self):
        ct = bytes(128)
        a = MACEngine(b"a" * 16).block_mac(ct, 0, 0, 0)
        b = MACEngine(b"b" * 16).block_mac(ct, 0, 0, 0)
        assert a != b

    def test_mac_size_validation(self):
        with pytest.raises(ValueError):
            MACEngine(b"k" * 16, mac_size=0)
        with pytest.raises(ValueError):
            MACEngine(b"k" * 16, mac_size=33)

    def test_truncated_mac(self):
        engine = MACEngine(b"k" * 16, mac_size=4)
        assert len(engine.block_mac(bytes(128), 0, 0, 0)) == 4


class TestChunkMAC:
    def test_chunk_mac_over_block_macs(self, engine):
        macs = [engine.block_mac(bytes([i] * 128), i * 128, 0, 0) for i in range(32)]
        cmac = engine.chunk_mac(macs)
        assert len(cmac) == 8
        assert engine.verify_chunk(macs, cmac)

    def test_chunk_mac_detects_any_block_change(self, engine):
        macs = [engine.block_mac(bytes([i] * 128), i * 128, 0, 0) for i in range(32)]
        cmac = engine.chunk_mac(macs)
        macs[7] = engine.block_mac(b"x" * 128, 7 * 128, 0, 0)
        assert not engine.verify_chunk(macs, cmac)

    def test_chunk_mac_order_sensitive(self, engine):
        macs = [bytes([i] * 8) for i in range(4)]
        assert engine.chunk_mac(macs) != engine.chunk_mac(list(reversed(macs)))

    def test_empty_chunk_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.chunk_mac([])


class TestBirthdayBound:
    def test_collision_updates_for_50_bits(self):
        # Section III-C: n=50 -> collision after 2^25 updates.
        assert collision_resistance_updates(50) == pytest.approx(2**25)

    def test_minimum_mac_bits_for_4gb(self):
        # 4 GB / 128 B = 2^25 blocks -> at least 50 bits needed.
        assert minimum_mac_bits(4 * 1024**3) == 50

    def test_truncated_4byte_mac_is_insufficient(self):
        # PSSM's 4 B (32-bit) truncation collides after only 2^16
        # updates - far below the 2^25 blocks of a 4 GB memory.
        assert collision_resistance_updates(32) < 2**25

    def test_default_8byte_mac_is_sufficient(self):
        assert collision_resistance_updates(64) >= 2**25

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            collision_resistance_updates(0)


@given(st.binary(min_size=128, max_size=128), st.integers(0, 2**40),
       st.integers(0, 2**30), st.integers(0, 127))
def test_property_genuine_always_verifies(ct, addr, major, minor):
    engine = MACEngine(b"prop" * 4)
    mac = engine.block_mac(ct, addr, major, minor)
    assert engine.verify_block(ct, addr, major, minor, mac)
