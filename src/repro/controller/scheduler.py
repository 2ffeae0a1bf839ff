"""The SSD-internal IO scheduling framework.

Paper Section 2.2: "Given the state of the flash chip array and a queue
of pending IOs from various sources [...], of various types [...], and
that have been waiting in the queue for different lengths of time, which
IO should be executed next and where?"

The *where* for writes is delegated to the allocator (late page binding);
this module answers the *which* and *when*.  Each LUN has a pending
queue: a dict from command id to command, so it iterates in enqueue
order and removes in O(1).  Whenever a channel or LUN frees, each free
channel starts the least-keyed of its free LUNs' candidates, and each
LUN's candidate is its eligible command with the least within-LUN key.
The policy picks the key functions once, at construction:

* ``FIFO``     -- oldest first.
* ``PRIORITY`` -- static (source, type) priorities with optional
  open-interface priority hints and an anti-starvation age threshold.
* ``DEADLINE`` -- earliest deadline first (overdue commands ahead).
* ``FAIR``     -- round-robin over command sources within a LUN, oldest
  first across the channel.

Every key ends with the unique command id, so the least key is unique and
no scan order can change the pick.  Eligibility rules keep the scheduler
safe regardless of policy: an erase only runs once its block holds no
live data and no in-flight reads, and a program only runs when the
allocator can bind a page for it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import SchedulerConfig, SsdSchedulerPolicy
from repro.core.engine import Simulator
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

#: Sources rotation order used by the FAIR policy.
_FAIR_ORDER = (
    CommandSource.APPLICATION,
    CommandSource.MAPPING,
    CommandSource.GC,
    CommandSource.WEAR_LEVELING,
)


class SsdScheduler:
    """Per-LUN pending queues plus the dispatch loop ("pump")."""

    def __init__(
        self,
        sim: Simulator,
        array: SsdArray,
        config: SchedulerConfig,
        can_bind: Callable[[FlashCommand], bool],
    ):
        self.sim = sim
        self.array = array
        self.config = config
        #: Allocator predicate: can a PROGRAM/COPYBACK bind a page now?
        self.can_bind = can_bind
        #: Pending commands per LUN, keyed by command id, in enqueue order.
        self.queues: dict[tuple[int, int], dict[int, FlashCommand]] = {
            key: {} for key in array.luns
        }
        #: Deepest any LUN queue has ever been (pure observer).
        self.queue_high_watermark = 0
        #: (LUN, its queue) pairs of each channel, indexed by channel id.
        self._channel_luns = [
            tuple(
                (array.lun(channel_id, lun_id), self.queues[(channel_id, lun_id)])
                for lun_id in range(array.geometry.luns_per_channel)
            )
            for channel_id in range(len(array.channels))
        ]
        #: FAIR: per LUN, the rank of the source served first (after the last).
        self._fair_rotation: dict[tuple[int, int], int] = {key: 0 for key in array.luns}
        self._pumping = False
        #: Deadline offset per command kind, stamped at enqueue (DEADLINE only).
        self._deadline_ns: dict[CommandKind, int] = {}
        policy = config.policy
        if policy is SsdSchedulerPolicy.FIFO or policy is SsdSchedulerPolicy.FAIR:
            self._sort_key = self._fifo_key
        elif policy is SsdSchedulerPolicy.PRIORITY:
            self._sort_key = self._priority_key
        elif policy is SsdSchedulerPolicy.DEADLINE:
            self._sort_key = self._deadline_key
            self._deadline_ns = dict.fromkeys(CommandKind, config.write_deadline_ns)
            self._deadline_ns[CommandKind.READ] = config.read_deadline_ns
            self._deadline_ns[CommandKind.ERASE] = config.erase_deadline_ns
        else:
            raise ValueError(f"unknown scheduler policy {policy!r}")
        #: Orders one LUN's commands (``_sort_key`` orders a channel's candidates).
        self._within_lun_key = (
            self._fair_key if policy is SsdSchedulerPolicy.FAIR else self._sort_key
        )

    # ------------------------------------------------------------------
    # Queue interface
    # ------------------------------------------------------------------
    def enqueue(self, cmd: FlashCommand) -> None:
        """Add a command to its LUN's pending queue and try to dispatch."""
        cmd.enqueue_time = now = self.sim.now
        if cmd.deadline is None and self._deadline_ns:
            cmd.deadline = now + self._deadline_ns[cmd.kind]
        queue = self.queues[cmd.lun_key]
        queue[cmd.id] = cmd
        if len(queue) > self.queue_high_watermark:
            self.queue_high_watermark = len(queue)
        self.pump()

    def queue_depth(self, lun_key: tuple[int, int]) -> int:
        """Pending commands bound to a LUN (used by LEAST_QUEUED
        allocation and by fairness metrics)."""
        return len(self.queues[lun_key])

    def total_pending(self) -> int:
        return sum(len(queue) for queue in self.queues.values())

    def abort(self, cmd: FlashCommand) -> None:
        """Remove a still-queued command (overload timeout abort).  The
        caller owns the flash-state cleanup (in-flight read accounting)
        and the IO completion."""
        del self.queues[cmd.lun_key][cmd.id]

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Dispatch eligible commands until no more progress is possible.

        Called on every enqueue and on every resource-free notification
        from the array.  Re-entrant calls collapse into the outer loop.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            progress = True
            while progress:
                progress = False
                for channel in self.array.channels:
                    if not channel.is_free(self.sim.now) or channel.has_continuations:
                        continue
                    started = self._dispatch_on_channel(channel.channel_id)
                    progress = progress or started
        finally:
            self._pumping = False

    def _dispatch_on_channel(self, channel_id: int) -> bool:
        """Start the best eligible command on one free channel."""
        best: Optional[FlashCommand] = None
        best_key: Optional[tuple] = None
        for lun, queue in self._channel_luns[channel_id]:
            if lun.is_busy or not queue:
                continue
            candidate = self._select(queue)
            if candidate is None:
                continue
            key = self._sort_key(candidate)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        if best is None:
            return False
        del self.queues[best.lun_key][best.id]
        # Only FAIR's within-LUN key reads the rotation.
        self._fair_rotation[best.lun_key] = _FAIR_ORDER.index(best.source) + 1
        self.array.start(best)
        return True

    def _select(self, queue: dict[int, FlashCommand]) -> Optional[FlashCommand]:
        """The least-keyed eligible command of one LUN queue, or None."""
        best: Optional[FlashCommand] = None
        best_key: Optional[tuple] = None
        # simlint: disable=SIM003 -- the least of unique keys does not depend on iteration order
        for cmd in queue.values():
            if not self._eligible(cmd):
                continue
            key = self._within_lun_key(cmd)
            if best_key is None or key < best_key:
                best, best_key = cmd, key
        return best

    def _eligible(self, cmd: FlashCommand) -> bool:
        if cmd.kind is CommandKind.ERASE:
            lun = self.array.lun_of(cmd)
            return lun.block(cmd.address.block).erasable
        if cmd.kind in (CommandKind.PROGRAM, CommandKind.COPYBACK):
            return self.can_bind(cmd)
        return True

    # ------------------------------------------------------------------
    # Policy keys: smaller sorts first; all end with (enqueue_time, id)
    # ------------------------------------------------------------------
    def _fifo_key(self, cmd: FlashCommand) -> tuple:
        return (cmd.enqueue_time or 0, cmd.id)

    def _priority_key(self, cmd: FlashCommand) -> tuple:
        config = self.config
        tail = (cmd.enqueue_time or 0, cmd.id)
        if cmd.age(self.sim.now) >= config.starvation_age_ns:
            return (0, 0, 0) + tail
        source_prio = config.source_priorities.get(cmd.source.name, 9)
        type_prio = config.type_priorities.get(cmd.kind.name, 9)
        hint_prio = 0
        if config.use_priority_hints and cmd.io is not None:
            hint_prio = cmd.io.hints.get("priority", 0)
        return (1, hint_prio, source_prio * 10 + type_prio) + tail

    def _deadline_key(self, cmd: FlashCommand) -> tuple:
        # ``enqueue`` stamps every command's deadline under this policy, so
        # the earliest deadline also puts every overdue command first.
        return (cmd.deadline, cmd.enqueue_time or 0, cmd.id)

    def _fair_key(self, cmd: FlashCommand) -> tuple:
        rotation = self._fair_rotation[cmd.lun_key]
        rank = (_FAIR_ORDER.index(cmd.source) - rotation) % len(_FAIR_ORDER)
        return (rank, cmd.enqueue_time or 0, cmd.id)
