"""Tests for the battery-backed-RAM write buffer."""

import pytest

from tests.controller.conftest import ControllerHarness, make_harness


def buffered_harness(pages=16, mutate=None) -> ControllerHarness:
    def apply(config):
        config.controller.write_buffer_pages = pages
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


class TestBuffering:
    def test_buffered_write_completes_fast(self):
        harness = buffered_harness()
        io = harness.write_sync(1)
        # Admission costs only the controller overhead, not a flash program.
        assert io.latency <= harness.config.timings.t_cmd_ns

    def test_read_served_from_buffer(self):
        harness = buffered_harness()
        harness.write_sync(2)
        io = harness.read_sync(2)
        assert io.data == (2, 1)  # buffer serves the true write version
        assert harness.controller.stats.counters["buffer_hits"] == 1

    def test_rewrites_absorbed_in_place(self):
        harness = buffered_harness()
        for _ in range(5):
            harness.write_sync(3)
        buffer = harness.controller.write_buffer
        assert buffer.counters["buffer_absorbed_rewrites"] == 4
        assert buffer.buffered_pages == 1

    def test_battery_ram_charged(self):
        harness = buffered_harness(pages=16)
        allocation = harness.controller.memory.battery_ram.allocations["write buffer"]
        assert allocation == 16 * harness.config.geometry.page_size_bytes

    def test_buffer_hides_flash_programs_for_hot_rewrites(self):
        harness = buffered_harness(pages=16)
        for _ in range(50):
            for lpn in range(4):
                harness.write(lpn)
            harness.run()
        programs = harness.controller.stats.flash_commands.get(
            ("APPLICATION", "PROGRAM"), 0
        )
        assert programs < 20  # 200 writes, almost all absorbed


class TestFlushing:
    def test_flush_starts_above_high_watermark(self):
        harness = buffered_harness(pages=16)
        for lpn in range(13):  # above 75% of 16
            harness.write(lpn)
        harness.run()
        assert harness.controller.stats.counters["buffer_flushed_pages"] > 0

    def test_flushed_data_lands_on_flash_and_reads_back(self):
        harness = buffered_harness(pages=8)
        for lpn in range(32):
            harness.write(lpn)
        harness.run()
        # Early pages were flushed out of the buffer.
        assert not harness.controller.write_buffer.contains(0)
        io = harness.read_sync(0)
        assert io.data == (0, 1)

    def test_backpressure_when_full(self):
        harness = buffered_harness(pages=4)
        ios = [harness.write(lpn) for lpn in range(20)]
        harness.run()
        assert all(io.complete_time is not None for io in ios)
        harness.controller.check_invariants()

    def test_rewrite_during_flush_keeps_newest_data(self):
        harness = buffered_harness(pages=4)
        # Push lpn 0 into flush, then rewrite it before the flush lands.
        harness.write(0)
        harness.write(1)
        harness.write(2)
        harness.write(3)  # exceeds high watermark -> flushing begins
        harness.write(0)  # rewrite while (possibly) mid-flush
        harness.run()
        io = harness.read_sync(0)
        # Whether buffered or flushed, the content must be the latest.
        assert io.data == (0, 2)


class TestTrim:
    def test_trim_of_buffered_page(self):
        harness = buffered_harness()
        harness.write_sync(5)
        harness.trim(5)
        harness.run()
        assert harness.read_sync(5).data is None
        assert not harness.controller.write_buffer.contains(5)

    def test_trim_of_unbuffered_page_passes_through(self):
        harness = buffered_harness()
        # Write enough to flush lpn 0 out, then trim it.
        for lpn in range(32):
            harness.write(lpn)
        harness.run()
        assert not harness.controller.write_buffer.contains(0)
        harness.trim(0)
        harness.run()
        assert harness.read_sync(0).data is None

    def test_trim_ordering_with_inflight_flush(self):
        harness = buffered_harness(pages=4)
        for lpn in range(4):
            harness.write(lpn)
        # Trims race the flushes triggered by filling the buffer.
        for lpn in range(4):
            harness.trim(lpn)
        harness.run()
        for lpn in range(4):
            assert harness.read_sync(lpn).data is None, lpn
        harness.controller.check_invariants()


class TestConfig:
    def test_zero_pages_disables_module(self, harness):
        assert harness.controller.write_buffer is None

    def test_rejects_zero_capacity(self):
        from repro.controller.write_buffer import WriteBuffer

        harness = make_harness()
        with pytest.raises(ValueError):
            WriteBuffer(harness.controller, 0)
