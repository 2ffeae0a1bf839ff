"""The scheduler's per-LUN queues: O(1) removal semantics and scaling.

Each LUN queue is a plain dict from command id to command.  Dispatch and
abort remove the chosen command by id.  A dict iterates in insertion
(enqueue) order, removes in O(1) and raises on a second removal, so the
queue behaves like the ordered list it models without the O(n)
``list.remove`` scan that turns quadratic exactly in the overload regime
the governor is built for.
"""

from __future__ import annotations

import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SsdSchedulerPolicy
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

from tests.controller.conftest import enqueue_held, make_harness


def _command(lun=(0, 0)) -> FlashCommand:
    return FlashCommand(
        CommandKind.READ,
        CommandSource.APPLICATION,
        PhysicalAddress(channel=lun[0], lun=lun[1], block=0, page=0),
    )


def _scheduler():
    harness = make_harness(
        lambda config: setattr(config.controller.scheduler, "policy", SsdSchedulerPolicy.FIFO)
    )
    return harness.controller.scheduler


class TestSemantics:
    def test_append_iter_len(self):
        scheduler = _scheduler()
        commands = [_command() for _ in range(5)]
        enqueue_held(scheduler, commands)
        queue = scheduler.queues[(0, 0)]
        assert list(queue.values()) == commands
        assert len(queue) == 5 == scheduler.queue_depth((0, 0))
        assert bool(queue)

    def test_remove_skips_in_iteration(self):
        scheduler = _scheduler()
        commands = [_command() for _ in range(5)]
        enqueue_held(scheduler, commands)
        scheduler.abort(commands[2])
        queue = scheduler.queues[(0, 0)]
        assert list(queue.values()) == [commands[0], commands[1], commands[3], commands[4]]
        assert len(queue) == 4

    def test_many_removals_keep_enqueue_order(self):
        scheduler = _scheduler()
        commands = [_command() for _ in range(100)]
        enqueue_held(scheduler, commands)
        removed = set(commands[:64:2])
        for cmd in commands[:64:2]:
            scheduler.abort(cmd)
        expected = [cmd for cmd in commands if cmd not in removed]
        assert list(scheduler.queues[(0, 0)].values()) == expected

    def test_double_remove_raises(self):
        scheduler = _scheduler()
        cmd = _command()
        enqueue_held(scheduler, [cmd])
        scheduler.abort(cmd)
        with pytest.raises(KeyError):
            scheduler.abort(cmd)

    def test_empty_queue_is_falsy(self):
        scheduler = _scheduler()
        queue = scheduler.queues[(0, 0)]
        assert not queue
        assert len(queue) == 0
        cmd = _command()
        enqueue_held(scheduler, [cmd])
        scheduler.abort(cmd)
        assert not queue
        assert scheduler.total_pending() == 0

    def test_high_watermark_tracks_live_depth(self):
        scheduler = _scheduler()
        commands = [_command() for _ in range(4)]
        enqueue_held(scheduler, commands[:3])
        assert scheduler.queue_high_watermark == 3
        scheduler.abort(commands[0])
        scheduler.abort(commands[1])
        enqueue_held(scheduler, commands[3:])
        # Live depth never exceeded 3.
        assert scheduler.queue_high_watermark == 3
        # The watermark is the deepest single LUN queue, not the total.
        enqueue_held(scheduler, [_command(lun=(0, 1)) for _ in range(3)])
        assert scheduler.total_pending() == 5
        assert scheduler.queue_high_watermark == 3
        enqueue_held(scheduler, [_command(lun=(0, 1))])
        assert scheduler.queue_high_watermark == 4


@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=15)),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=50, deadline=None)
def test_matches_reference_list(ops):
    """Random enqueue/abort interleavings behave exactly like a plain
    list with list.remove, and the watermark is the deepest the live
    list has been."""
    scheduler = _scheduler()
    queue = scheduler.queues[(0, 0)]
    reference: list[FlashCommand] = []
    deepest = 0
    for is_remove, index in ops:
        if is_remove and reference:
            victim = reference.pop(index % len(reference))
            scheduler.abort(victim)
        else:
            cmd = _command()
            enqueue_held(scheduler, [cmd])
            reference.append(cmd)
        deepest = max(deepest, len(reference))
        assert list(queue.values()) == reference
        assert len(queue) == len(reference)
        assert bool(queue) == bool(reference)
        assert scheduler.queue_high_watermark == deepest


def _removal_seconds(depth: int, drain: bool) -> float:
    """Best of five: empty a ``depth``-deep LUN queue front to back the
    way dispatch does (``drain``) or by aborting from the back."""
    best = float("inf")
    for _ in range(5):
        scheduler = _scheduler()
        commands = [_command() for _ in range(depth)]
        enqueue_held(scheduler, commands)
        queue = scheduler.queues[(0, 0)]
        gc.disable()
        try:
            start = time.perf_counter()
            if drain:
                for cmd in commands:
                    del queue[cmd.id]
            else:
                for cmd in reversed(commands):
                    scheduler.abort(cmd)
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        assert not queue
    return best


def test_deep_queue_dispatch_is_not_quadratic():
    """Regression for the O(n) deque.remove: emptying a queue ten times
    as deep must take about ten times as long, not a hundred."""
    for drain in (True, False):
        shallow = _removal_seconds(2_000, drain)
        deep = _removal_seconds(20_000, drain)
        assert deep < 30 * shallow, (drain, shallow, deep)
