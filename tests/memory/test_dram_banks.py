"""Bank-level row-buffer model (a channel under BankedScheduler)."""

import pytest

from repro.memory.dram import DRAMChannel
from repro.memory.sched import BankedScheduler


def make(penalty=20.0, banks=4):
    return DRAMChannel(bytes_per_cycle=32, latency=0,
                       scheduler=BankedScheduler(banks, 2048, penalty))


class TestRowBuffer:
    def test_first_access_misses_row(self):
        ch = make()
        done = ch.service(0, 32, address=0)
        assert done == pytest.approx(1 + 20)

    def test_same_row_hits(self):
        ch = make()
        ch.service(0, 32, address=0)
        before = ch.next_free
        ch.service(0, 32, address=1024)  # same 2 KB row
        assert ch.next_free == pytest.approx(before + 1)

    def test_different_row_same_bank_misses(self):
        ch = make(banks=4)
        ch.service(0, 32, address=0)           # bank 0, row 0
        before = ch.next_free
        ch.service(0, 32, address=4 * 2048)    # bank 0, row 1
        assert ch.next_free == pytest.approx(before + 1 + 20)

    def test_different_banks_keep_own_rows(self):
        ch = make(banks=4)
        ch.service(0, 32, address=0)        # opens bank 0
        ch.service(0, 32, address=2048)     # opens bank 1
        before = ch.next_free
        ch.service(0, 32, address=64)       # bank 0 row still open
        assert ch.next_free == pytest.approx(before + 1)

    def test_streaming_mostly_hits(self):
        stream = make()
        scatter = make()
        for i in range(64):
            stream.service(0, 128, address=i * 128)          # sequential
            scatter.service(0, 128, address=(i * 7919) * 2048)  # row-hostile
        assert scatter.stats.busy_cycles > stream.stats.busy_cycles

    def test_disabled_without_penalty(self):
        ch = DRAMChannel(bytes_per_cycle=32, latency=0)
        assert ch.service(0, 32, address=0) == pytest.approx(1)

    def test_unknown_address_skips_model(self):
        ch = make()
        assert ch.service(0, 32) == pytest.approx(1)  # address=-1
