"""Write buffering in battery-backed RAM.

Paper Section 2.2: "other modules can be added to the SSD controller,
e.g., a write-buffering module that uses battery-backed RAM to
temporarily store data before it is written on flash pages."

Semantics:

* An admitted write completes as soon as its page sits in the buffer
  (battery-backed RAM is durable), after a small controller overhead.
* A write to an already-buffered page is absorbed in place -- this is
  where the module wins: rewrite-heavy workloads never touch flash.
* Reads are served from the buffer when the page is buffered.
* Above the high watermark the buffer flushes least-recently-written
  pages through the FTL; a page stays readable in the buffer until its
  flash program completes.
* When the buffer is full, incoming writes wait for a free slot
  (back-pressure), preserving durability semantics.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING

from repro.core.events import IoRequest, WriteHints

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController

class _BufferedPage:
    """One buffered page: its hints plus the write version it carries.

    The version is reserved from the FTL at admission, so content tokens
    stay one-to-one with logical writes even when rewrites are absorbed
    in RAM and only the newest version ever reaches flash.
    """

    __slots__ = ("hints", "version")

    def __init__(self, hints: WriteHints, version: int):
        self.hints = hints
        self.version = version


class WriteBuffer:
    """An LRU write-back buffer of whole pages in battery-backed RAM."""

    #: Start flushing above this occupancy...
    HIGH_WATERMARK = 0.75
    #: ...and stop once back at or below this occupancy.
    LOW_WATERMARK = 0.50

    def __init__(self, controller: "SsdController", capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("write buffer needs at least one page")
        self.controller = controller
        self.capacity = capacity_pages
        #: E14 durability axis: battery-backed RAM admits-and-acks (the
        #: buffer is durable), plain RAM defers the host acknowledgement
        #: until the page is actually on flash -- a power loss may then
        #: destroy buffered data, but never an acknowledged write.
        self.battery_backed = controller.config.controller.write_buffer_battery_backed
        page_bytes = controller.config.geometry.page_size_bytes
        if self.battery_backed:
            controller.memory.allocate_battery_ram(
                "write buffer", capacity_pages * page_bytes
            )
        else:
            controller.memory.allocate_ram(
                "write buffer", capacity_pages * page_bytes
            )
        #: lpn -> _BufferedPage, in least-recently-written-first order.
        self._entries: OrderedDict[int, _BufferedPage] = OrderedDict()
        #: Pages whose flush program is in flight (still readable).
        self._flushing: set[int] = set()
        #: Pages rewritten while their flush was in flight; their entry
        #: must survive the flush completion.
        self._rewritten_during_flush: set[int] = set()
        #: Trims deferred until an in-flight flush of the page completes.
        self._pending_trims: dict[int, list[IoRequest]] = {}
        #: Writes waiting for a free slot: (io, hints, version).
        self._waiting: deque[tuple[IoRequest, WriteHints, int]] = deque()
        #: Volatile mode only: accepted-but-unacknowledged writes per
        #: LPN, acknowledged once a flush covering their version lands.
        self._pending_acks: dict[int, list[IoRequest]] = {}
        #: Run counters (``buffer_*``), in the run-long statistics store.
        self.counters = controller.stats.counters

    # ------------------------------------------------------------------
    # IO paths (called by the controller)
    # ------------------------------------------------------------------
    def write(self, io: IoRequest, hints: WriteHints) -> None:
        version = self.controller.ftl.next_version(io.lpn)
        io.version = version
        if io.lpn in self._entries:
            # Absorb the rewrite in place.  If a flush of the old content
            # is in flight, remember that the entry must survive it.
            self._entries.move_to_end(io.lpn)
            self._entries[io.lpn] = _BufferedPage(hints, version)
            if io.lpn in self._flushing:
                self._rewritten_during_flush.add(io.lpn)
            self.counters["buffer_absorbed_rewrites"] += 1
            self._ack_or_defer(io)
            return
        if len(self._entries) >= self.capacity:
            self._waiting.append((io, hints, version))
            self._maybe_flush(force=True)
            return
        self._admit(io, hints, version)

    def _admit(self, io: IoRequest, hints: WriteHints, version: int) -> None:
        self._entries[io.lpn] = _BufferedPage(hints, version)
        self._entries.move_to_end(io.lpn)
        self._ack_or_defer(io)
        self._maybe_flush()

    def _ack_or_defer(self, io: IoRequest) -> None:
        """Battery-backed: the buffer is durable, acknowledge now.
        Volatile: hold the acknowledgement until the data is on flash --
        and flush eagerly (write-through), otherwise writes below the
        watermark would never be acknowledged.  The volatile buffer
        keeps the read-cache and rewrite-coalescing wins but none of the
        ack-latency win: that is the durability trade of E14/E19."""
        if self.battery_backed:
            self.controller.complete_quick(io)
            return
        self._pending_acks.setdefault(io.lpn, []).append(io)
        if io.lpn not in self._flushing and io.lpn in self._entries:
            self._flush_page(io.lpn)

    def serve_read(self, io: IoRequest) -> bool:
        """Complete ``io`` from the buffer if the page is buffered."""
        if io.lpn not in self._entries:
            return False
        self.counters["buffer_hits"] += 1
        io.data = (io.lpn, self._entries[io.lpn].version)
        self.controller.complete_quick(io)
        return True

    def trim(self, io: IoRequest) -> bool:
        """Trim support.  Returns True when the buffer took ownership of
        the trim; the FTL trim is then issued by the buffer itself (after
        any in-flight flush of the page, to preserve ordering)."""
        if io.lpn not in self._entries:
            return False
        if io.lpn in self._flushing:
            self._pending_trims.setdefault(io.lpn, []).append(io)
            return True
        del self._entries[io.lpn]
        self._rewritten_during_flush.discard(io.lpn)
        # The trim supersedes any accepted-but-unflushed writes of the
        # page: acknowledge them (their data no longer has to reach
        # flash) strictly before the trim's own completion below.
        self._ack_all_pending(io.lpn)
        # An older version of the page may still be mapped on flash.
        self.controller.ftl.trim(io)
        self._admit_waiters()
        return True

    @property
    def buffered_pages(self) -> int:
        return len(self._entries)

    def contains(self, lpn: int) -> bool:
        return lpn in self._entries

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _maybe_flush(self, force: bool = False) -> None:
        high = int(self.capacity * self.HIGH_WATERMARK)
        low = int(self.capacity * self.LOW_WATERMARK)
        if not force and len(self._entries) <= high:
            return
        target = low if len(self._entries) > high else len(self._entries) - 1
        # simlint: disable=SIM003 -- insertion order IS the FIFO eviction
        # policy here; sorting by LPN would change which pages flush first.
        for lpn in list(self._entries):
            if len(self._entries) - len(self._flushing) <= target:
                break
            if lpn in self._flushing:
                continue
            self._flush_page(lpn)

    def _flush_page(self, lpn: int) -> None:
        page = self._entries[lpn]
        self._flushing.add(lpn)
        self.controller.ftl.write(
            None,
            lpn,
            page.hints,
            on_done=lambda lpn=lpn, version=page.version: self._flush_done(lpn, version),
            version=page.version,
        )

    def _flush_done(self, lpn: int, version: int) -> None:
        self._flushing.discard(lpn)
        self.counters["buffer_flushed_pages"] += 1
        self._ack_flushed(lpn, version)
        if lpn in self._rewritten_during_flush:
            # Newer content arrived mid-flush: the flash copy is already
            # stale, keep the buffered page.
            self._rewritten_during_flush.discard(lpn)
        else:
            self._entries.pop(lpn, None)
        for trim_io in self._pending_trims.pop(lpn, []):
            self._entries.pop(lpn, None)
            self._rewritten_during_flush.discard(lpn)
            self._ack_all_pending(lpn)
            self.controller.ftl.trim(trim_io)
        if (
            self._pending_acks.get(lpn)
            and lpn in self._entries
            and lpn not in self._flushing
        ):
            # Volatile mode: a rewrite landed mid-flush; its ack still
            # waits on flash, so the newer version flushes right away.
            self._flush_page(lpn)
        self._admit_waiters()

    def _ack_flushed(self, lpn: int, version: int) -> None:
        """Volatile mode: the flush put ``version`` on flash, so every
        held write of the page up to that version is now durable.

        Reentrancy: ``complete_io`` interrupts the OS, whose thread may
        issue (and defer) a *new* write of this page synchronously -- so
        the list is detached first and survivors reinstalled before any
        completion fires; reentrant appends then extend a fresh list."""
        waiting = self._pending_acks.pop(lpn, None)
        if not waiting:
            return
        ready = [io for io in waiting if io.version is not None and io.version <= version]
        newer = [io for io in waiting if io.version is None or io.version > version]
        if newer:
            self._pending_acks[lpn] = newer
        for io in ready:
            self.controller.complete_io(io)

    def _ack_all_pending(self, lpn: int) -> None:
        for io in self._pending_acks.pop(lpn, []):
            self.controller.complete_io(io)

    def _admit_waiters(self) -> None:
        while self._waiting and len(self._entries) < self.capacity:
            io, hints, version = self._waiting.popleft()
            if io.lpn in self._entries:
                # The page re-entered the buffer while this write waited.
                # Absorb in place unless a newer write already superseded
                # this one (never regress the buffered version).
                if version > self._entries[io.lpn].version:
                    self._entries.move_to_end(io.lpn)
                    self._entries[io.lpn] = _BufferedPage(hints, version)
                    if io.lpn in self._flushing:
                        self._rewritten_during_flush.add(io.lpn)
                self.counters["buffer_absorbed_rewrites"] += 1
                self._ack_or_defer(io)
            else:
                self._admit(io, hints, version)

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def snapshot_entries(self) -> list[tuple[int, WriteHints, int]]:
        """Battery-backed mode: the buffer contents that survive a power
        loss, in eviction (least-recently-written-first) order."""
        # simlint: disable=SIM003 -- insertion order is the FIFO state
        # being preserved across the crash.
        return [
            (lpn, page.hints, page.version) for lpn, page in self._entries.items()
        ]

    def restore(self, entries: list[tuple[int, WriteHints, int]]) -> None:
        """Remount: re-install surviving buffer contents.  The writes
        they came from were acknowledged before the crash -- nothing is
        re-acknowledged here -- and normal watermark flushing resumes."""
        for lpn, hints, version in entries:
            self._entries[lpn] = _BufferedPage(hints, version)
        self._maybe_flush()
