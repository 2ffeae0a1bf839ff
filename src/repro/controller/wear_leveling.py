"""Wear leveling (paper Section 2.2).

"The default wear leveling module keeps track of (1) the ages of all
blocks, (2) a timestamp for each block marking the time in which it was
last erased, (3) the average length of time it takes a block to be
erased, and (4) the current time.  Using this information, the WL module
can identify particularly young blocks that have not been erased for a
very long time, and can target them for static wear leveling."

Static WL is implemented here: every ``check_interval_erases`` block
erases the module scans for blocks whose erase count lies well below the
average and which have not been erased for several average erase
intervals.  The live (hence cold) data of such a block is migrated to an
*old* block -- the pages are reported to the temperature module as cold
-- and the young block is erased, making it available to hot writes.

Dynamic WL -- handing young free blocks to hot streams and old free
blocks to cold streams -- lives in the allocator's free-block selection
(:meth:`repro.controller.allocation.WriteAllocator._pick_free_block`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.addresses import PhysicalAddress, iter_luns
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


class _Migration:
    """One in-progress static-WL migration of one young block."""

    __slots__ = ("lun_key", "block_id", "pending")

    def __init__(self, lun_key: tuple[int, int], block_id: int):
        self.lun_key = lun_key
        self.block_id = block_id
        self.pending = 0


class WearLeveler:
    """Static wear leveling: migrate cold data off under-erased blocks."""

    def __init__(self, controller: "SsdController"):
        self.controller = controller
        self.config = controller.config.controller.wear_leveling
        self._erases_since_check = 0
        #: Rotates the scan's starting LUN so the concurrency cap does
        #: not starve later LUNs of migrations.
        self._scan_rotation = 0
        self.total_erases = 0
        self.active: dict[tuple[tuple[int, int], int], _Migration] = {}
        #: Run counters (``wl_*``), in the run-long statistics store.
        self.counters = controller.stats.counters

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_erase(self) -> None:
        """Controller hook, called on every completed block erase."""
        self.total_erases += 1
        if not self.config.enabled:
            return
        if self.controller.ftl.manages_physical_space:
            # The hybrid FTL's block map cannot express arbitrary page
            # relocations; static WL stands down (as in real hybrid FTLs,
            # which level wear through their own merge choices).
            return
        self._erases_since_check += 1
        if self._erases_since_check >= self.config.check_interval_erases:
            self._erases_since_check = 0
            self._scan()

    # ------------------------------------------------------------------
    # Static-WL scan
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        array = self.controller.array
        geometry = self.controller.config.geometry
        now = self.controller.sim.now
        num_blocks = geometry.total_blocks
        if self.total_erases == 0 or now == 0:
            return
        average_erases = self.total_erases / num_blocks
        # Average time between erases of one block, estimated globally.
        average_interval = now / max(1.0, average_erases)
        erase_floor = average_erases - self.config.erase_count_threshold
        idle_floor = self.config.idle_factor * average_interval
        lun_keys = list(iter_luns(geometry))
        start = self._scan_rotation % len(lun_keys)
        self._scan_rotation += 1
        for offset in range(len(lun_keys)):
            if len(self.active) >= self.config.max_concurrent_migrations:
                return
            lun_key = lun_keys[(start + offset) % len(lun_keys)]
            lun = array.luns[lun_key]
            state = lun.state
            lo, hi = state.block_range(lun.lun_index)
            # Under-erased occupied blocks whose data has sat cold for at
            # least one idle interval.  A recently-written block holds
            # fresh (likely hot) data; migrating it would pump hot pages
            # onto old blocks and concentrate wear instead of leveling it.
            mask = (
                (state.block_free[lo:hi] == 0)
                & (state.write_pointer[lo:hi] > 0)
                & (state.live_count[lo:hi] > 0)
                & (state.erase_count[lo:hi] < erase_floor)
                & (now - state.last_erase_ns[lo:hi] > idle_floor)
                & (now - state.last_write_ns[lo:hi] > idle_floor)
            )
            for block_id in self.controller.allocator.open_block_ids(lun_key):
                mask[block_id] = False
            for block_id in np.nonzero(mask)[0].tolist():
                if (lun_key, block_id) in self.active:
                    continue
                if self.controller.gc_is_collecting(lun_key, block_id):
                    continue
                self._migrate(lun_key, block_id)
                if len(self.active) >= self.config.max_concurrent_migrations:
                    return

    def _migrate(self, lun_key: tuple[int, int], block_id: int) -> None:
        migration = _Migration(lun_key, block_id)
        self.active[(lun_key, block_id)] = migration
        self.counters["wl_migrations"] += 1
        lun = self.controller.array.luns[lun_key]
        block = lun.block(block_id)
        live_pages = block.live_page_indexes()
        self.controller.tracer.record(
            self.controller.sim.now,
            "controller",
            "wl-start",
            f"young block (c{lun_key[0]},l{lun_key[1]},b{block_id}) "
            f"erases={block.erase_count} live={len(live_pages)}",
        )
        migration.pending = len(live_pages)
        if not live_pages:
            self._issue_erase(migration)
            return
        for page_index in live_pages:
            source = PhysicalAddress(lun_key[0], lun_key[1], block_id, page_index)
            cmd = FlashCommand(
                CommandKind.READ,
                CommandSource.WEAR_LEVELING,
                source,
                context=migration,
                on_complete=self._read_done,
            )
            self.controller.enqueue_command(cmd)

    def _read_done(self, cmd: FlashCommand) -> None:
        assert cmd.content is not None
        lun_key = self.controller.allocator.place_internal("wl_cold")
        program = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.WEAR_LEVELING,
            PhysicalAddress(lun_key[0], lun_key[1], -1, -1),
            lpn=cmd.content[0],
            content=cmd.content,
            stream="wl_cold",
            context=(cmd.context, cmd.address),
            on_complete=self._program_done,
        )
        self.controller.enqueue_command(program)

    def _program_done(self, cmd: FlashCommand) -> None:
        migration, source = cmd.context
        assert cmd.content is not None
        live = self.controller.ftl.on_relocation(cmd.content, source, cmd.address)
        if live and cmd.content[0] >= 0:
            # Migrated data is cold by assumption (paper, option 1).
            self.controller.temperature.mark_cold(cmd.content[0])
        self.counters["wl_migrated_pages"] += 1
        migration.pending -= 1
        if migration.pending == 0:
            self._issue_erase(migration)

    def _issue_erase(self, migration: _Migration) -> None:
        cmd = FlashCommand(
            CommandKind.ERASE,
            CommandSource.WEAR_LEVELING,
            PhysicalAddress(
                migration.lun_key[0], migration.lun_key[1], migration.block_id, 0
            ),
            context=migration,
            on_complete=self._erase_done,
        )
        self.controller.enqueue_command(cmd)

    def _erase_done(self, cmd: FlashCommand) -> None:
        migration = cmd.context
        self.active.pop((migration.lun_key, migration.block_id), None)
        self.controller.tracer.record(
            self.controller.sim.now,
            "controller",
            "wl-done",
            f"freed (c{migration.lun_key[0]},l{migration.lun_key[1]},"
            f"b{migration.block_id})",
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def wear_statistics(self) -> dict[str, float]:
        """Spread of erase counts across all blocks."""
        counts = self.controller.array.erase_counts()
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return {
            "min": float(min(counts)),
            "max": float(max(counts)),
            "mean": mean,
            "stddev": math.sqrt(variance),
            "spread": float(max(counts) - min(counts)),
        }
