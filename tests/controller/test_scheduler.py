"""Tests for the SSD-internal scheduling framework."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.scheduler import SsdScheduler
from repro.core.config import SchedulerConfig, SsdSchedulerPolicy
from repro.core.engine import Simulator
from repro.core.events import IoRequest, IoType
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

from tests.controller.conftest import enqueue_held, make_harness


def scheduler_harness(policy, mutate=None):
    def apply(config):
        config.controller.scheduler.policy = policy
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


def _cmd(kind, source, lun=(0, 0), deadline=None, io=None):
    if kind is CommandKind.PROGRAM:
        address = PhysicalAddress(lun[0], lun[1], -1, -1)
    else:
        address = PhysicalAddress(lun[0], lun[1], 0, 0)
    return FlashCommand(kind, source, address, deadline=deadline, io=io, content=(0, 1))


class TestQueueing:
    def test_enqueue_stamps_time_and_counts(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FIFO)
        scheduler = harness.controller.scheduler
        harness.sim.advance_to(1234)
        cmd = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        enqueue_held(scheduler, [cmd])
        assert cmd.enqueue_time == 1234
        assert scheduler.queues[(0, 0)] == {cmd.id: cmd}
        assert scheduler.queue_depth((0, 0)) == 1

    def test_queue_depth_counts_waiting_commands(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FIFO)
        for _ in range(6):
            harness.write(0)
        total = sum(
            harness.controller.scheduler.queue_depth(key)
            for key in harness.controller.array.luns
        )
        assert total >= 1  # some are waiting, some executing
        harness.run()
        assert harness.controller.scheduler.total_pending() == 0


class TestFifoOrdering:
    def test_same_lun_commands_complete_in_issue_order(self):
        from repro.core.config import AllocationPolicy

        harness = scheduler_harness(
            SsdSchedulerPolicy.FIFO,
            mutate=lambda c: setattr(c.controller, "allocation", AllocationPolicy.STRIPE),
        )
        # STRIPE pins one LPN to one LUN, serialising these writes.
        ios = [harness.write(0) for _ in range(5)]
        harness.run()
        completions = [(io.complete_time, io.id) for io in ios]
        assert completions == sorted(completions)


class TestPriorityOrdering:
    def _sorted_first(self, policy, commands, config_mutate=None, now=0):
        """Build a bare scheduler key and return the command that wins."""
        harness = scheduler_harness(policy, config_mutate)
        scheduler = harness.controller.scheduler
        for cmd in commands:
            cmd.enqueue_time = now
        return min(commands, key=scheduler._sort_key)

    def test_application_beats_gc(self):
        app = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        gc = _cmd(CommandKind.READ, CommandSource.GC)
        winner = self._sorted_first(SsdSchedulerPolicy.PRIORITY, [gc, app])
        assert winner is app

    def test_gc_beats_wear_leveling(self):
        gc = _cmd(CommandKind.READ, CommandSource.GC)
        wl = _cmd(CommandKind.READ, CommandSource.WEAR_LEVELING)
        assert self._sorted_first(SsdSchedulerPolicy.PRIORITY, [wl, gc]) is gc

    def test_reads_beat_erases_within_source(self):
        read = _cmd(CommandKind.READ, CommandSource.GC)
        erase = _cmd(CommandKind.ERASE, CommandSource.GC)
        assert self._sorted_first(SsdSchedulerPolicy.PRIORITY, [erase, read]) is read

    def test_custom_priorities_invert_read_write(self):
        def prefer_writes(config):
            config.controller.scheduler.type_priorities = {
                "PROGRAM": 0, "READ": 1, "COPYBACK": 2, "ERASE": 3,
            }

        read = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        write = _cmd(CommandKind.PROGRAM, CommandSource.APPLICATION)
        winner = self._sorted_first(
            SsdSchedulerPolicy.PRIORITY, [read, write], prefer_writes
        )
        assert winner is write

    def test_starved_command_beats_priority(self):
        harness = scheduler_harness(SsdSchedulerPolicy.PRIORITY)
        scheduler = harness.controller.scheduler
        old = _cmd(CommandKind.ERASE, CommandSource.WEAR_LEVELING)
        old.enqueue_time = 0
        fresh = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        fresh.enqueue_time = harness.config.controller.scheduler.starvation_age_ns
        harness.sim.advance_to(fresh.enqueue_time)
        assert min([fresh, old], key=scheduler._sort_key) is old

    def test_priority_hints_ignored_unless_enabled(self):
        plain = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        urgent_io = IoRequest(IoType.READ, 0, hints={"priority": -5})
        hinted = _cmd(CommandKind.READ, CommandSource.APPLICATION, io=urgent_io)
        assert plain.id < hinted.id  # same enqueue time: plain is older
        winner = self._sorted_first(SsdSchedulerPolicy.PRIORITY, [hinted, plain])
        assert winner is plain  # the hint is not decisive
        # With hints enabled the hinted command must win outright.
        def enable(config):
            config.controller.scheduler.use_priority_hints = True

        winner = self._sorted_first(SsdSchedulerPolicy.PRIORITY, [plain, hinted], enable)
        assert winner is hinted


class TestDeadlineOrdering:
    def test_earliest_deadline_first(self):
        tight = _cmd(CommandKind.READ, CommandSource.APPLICATION, deadline=100)
        loose = _cmd(CommandKind.READ, CommandSource.APPLICATION, deadline=900)
        harness = scheduler_harness(SsdSchedulerPolicy.DEADLINE)
        for cmd in (tight, loose):
            cmd.enqueue_time = 0
        assert min([loose, tight], key=harness.controller.scheduler._sort_key) is tight

    def test_overdue_commands_jump_queue(self):
        harness = scheduler_harness(SsdSchedulerPolicy.DEADLINE)
        harness.sim.advance_to(500)
        overdue = _cmd(CommandKind.ERASE, CommandSource.GC, deadline=100)
        upcoming = _cmd(CommandKind.READ, CommandSource.APPLICATION, deadline=600)
        for cmd in (overdue, upcoming):
            cmd.enqueue_time = 400
        assert min([upcoming, overdue], key=harness.controller.scheduler._sort_key) is overdue

    def test_deadline_for_assigns_per_kind(self):
        harness = scheduler_harness(SsdSchedulerPolicy.DEADLINE)
        scheduler = harness.controller.scheduler
        config = harness.config.controller.scheduler
        harness.sim.advance_to(100)
        expected = {
            CommandKind.READ: config.read_deadline_ns,
            CommandKind.PROGRAM: config.write_deadline_ns,
            CommandKind.COPYBACK: config.write_deadline_ns,
            CommandKind.ERASE: config.erase_deadline_ns,
        }
        for kind, offset in expected.items():
            cmd = _cmd(kind, CommandSource.GC)
            enqueue_held(scheduler, [cmd])
            assert cmd.deadline == 100 + offset, kind
        preset = _cmd(CommandKind.READ, CommandSource.GC, deadline=7)
        enqueue_held(scheduler, [preset])
        assert preset.deadline == 7  # an explicit deadline is kept

    def test_deadline_for_none_under_other_policies(self):
        for policy in SsdSchedulerPolicy:
            if policy is SsdSchedulerPolicy.DEADLINE:
                continue
            harness = scheduler_harness(policy)
            cmd = _cmd(CommandKind.READ, CommandSource.APPLICATION)
            enqueue_held(harness.controller.scheduler, [cmd])
            assert cmd.deadline is None, policy


class TestEligibility:
    def test_erase_waits_for_inflight_reads(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FIFO)
        harness.write_sync(0)
        address = harness.controller.ftl.mapped_address(0)
        lun = harness.controller.array.luns[(address.channel, address.lun)]
        block = lun.block(address.block)
        block.invalidate(address.page)
        block.inflight_reads += 1
        erase = _cmd(CommandKind.ERASE, CommandSource.GC, lun=(address.channel, address.lun))
        erase.address = PhysicalAddress(address.channel, address.lun, address.block, 0)
        assert not harness.controller.scheduler._eligible(erase)
        block.inflight_reads -= 1
        assert harness.controller.scheduler._eligible(erase)

    def test_reads_always_eligible(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FIFO)
        read = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        assert harness.controller.scheduler._eligible(read)


class TestFairPolicy:
    def test_rotates_across_sources(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FAIR)
        scheduler = harness.controller.scheduler
        queue = scheduler.queues[(0, 0)]
        app1 = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        app2 = _cmd(CommandKind.READ, CommandSource.APPLICATION)
        gc = _cmd(CommandKind.READ, CommandSource.GC)
        for cmd in (app1, app2, gc):
            enqueue_held(scheduler, [cmd])
        assert scheduler._select(queue) is app1
        assert scheduler._dispatch_on_channel(0)
        assert harness.controller.array.lun(0, 0).current_command is app1
        assert list(queue.values()) == [app2, gc]
        assert scheduler._select(queue) is gc  # rotation moved past APPLICATION

    def test_full_workload_completes_under_every_policy(self):
        for policy in SsdSchedulerPolicy:
            harness = scheduler_harness(policy)
            for lpn in range(0, 200):
                harness.write(lpn % harness.config.logical_pages)
            for lpn in range(0, 50):
                harness.read(lpn)
            harness.run()
            assert len(harness.completed) == 250, policy
            harness.controller.check_invariants()


class TestChannelSharing:
    def test_channel_serves_both_luns(self):
        """With a backlog on both LUNs of one channel, neither starves."""
        from repro.core.config import AllocationPolicy

        harness = scheduler_harness(
            SsdSchedulerPolicy.FIFO,
            mutate=lambda c: setattr(c.controller, "allocation", AllocationPolicy.STRIPE),
        )
        total_luns = harness.config.geometry.total_luns
        # Stripe lpns 0 and 4 land on the two LUNs of channel 0 (keys
        # (0,0) and (0,1) given luns_per_channel=2).
        for _ in range(10):
            harness.write(0)
            harness.write(1)
        harness.run()
        utilisation = harness.controller.array.lun_utilisation()
        assert utilisation[(0, 0)] > 0 and utilisation[(0, 1)] > 0


class TestPumpProgress:
    def test_pump_is_reentrant_noop(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FIFO)
        scheduler = harness.controller.scheduler
        scheduler._pumping = True
        scheduler.pump()  # must not recurse or dispatch
        scheduler._pumping = False
        harness.write_sync(0)

    def test_total_pending_counts_all_luns(self):
        harness = scheduler_harness(SsdSchedulerPolicy.FIFO)
        for lpn in range(12):
            harness.write(lpn)
        scheduler = harness.controller.scheduler
        depths = [scheduler.queue_depth(key) for key in harness.controller.array.luns]
        assert scheduler.total_pending() == sum(depths)
        assert sum(1 for depth in depths if depth) >= 2  # the backlog spans LUNs
        harness.run()
        assert harness.controller.scheduler.total_pending() == 0


# ----------------------------------------------------------------------
# Reference equivalence: one channel's picks match the earlier algorithm,
# which started its LUN scan at a rotating offset and let FAIR take the
# first match in queue order of the first source (in rotation) that had
# an eligible command.
# ----------------------------------------------------------------------
_REF_FAIR_ORDER = (
    CommandSource.APPLICATION,
    CommandSource.MAPPING,
    CommandSource.GC,
    CommandSource.WEAR_LEVELING,
)


def _reference_key(policy, config, now, cmd):
    tail = (cmd.enqueue_time or 0, cmd.id)
    if policy is SsdSchedulerPolicy.PRIORITY:
        if cmd.age(now) >= config.starvation_age_ns:
            return (0, 0, 0) + tail
        source_prio = config.source_priorities.get(cmd.source.name, 9)
        type_prio = config.type_priorities.get(cmd.kind.name, 9)
        hint_prio = 0
        if config.use_priority_hints and cmd.io is not None:
            hint_prio = cmd.io.hints.get("priority", 0)
        return (1, hint_prio, source_prio * 10 + type_prio) + tail
    if policy is SsdSchedulerPolicy.DEADLINE:
        deadline = cmd.deadline if cmd.deadline is not None else float("inf")
        return (0 if cmd.overdue(now) else 1, deadline) + tail
    return tail


class _ReferenceChannel:
    """The earlier dispatch of one channel over per-LUN lists."""

    def __init__(self, policy, config, queues, busy, eligible, lun_rotation, fair_rotation):
        self.policy, self.config = policy, config
        self.queues, self.busy, self.eligible = queues, busy, eligible
        self.lun_rotation = lun_rotation
        self.fair_rotation = list(fair_rotation)

    def _select(self, lun_id, now):
        queue = self.queues[lun_id]
        if self.policy is SsdSchedulerPolicy.FAIR:
            start = self.fair_rotation[lun_id]
            for offset in range(len(_REF_FAIR_ORDER)):
                source = _REF_FAIR_ORDER[(start + offset) % len(_REF_FAIR_ORDER)]
                for cmd in queue:
                    if cmd.source is source and self.eligible(cmd):
                        return cmd
            return None
        eligible = [cmd for cmd in queue if self.eligible(cmd)]
        if not eligible:
            return None
        return min(eligible, key=lambda cmd: _reference_key(self.policy, self.config, now, cmd))

    def dispatch(self, now):
        luns = len(self.queues)
        best = None
        for offset in range(luns):
            lun_id = (self.lun_rotation + offset) % luns
            if lun_id in self.busy:
                continue
            candidate = self._select(lun_id, now)
            if candidate is None:
                continue
            key = _reference_key(self.policy, self.config, now, candidate)
            if best is None or key < best[0]:
                best = (key, candidate, offset)
        if best is None:
            return None
        _, cmd, offset = best
        self.queues[cmd.address.lun].remove(cmd)
        index = _REF_FAIR_ORDER.index(cmd.source)
        self.fair_rotation[cmd.address.lun] = (index + 1) % len(_REF_FAIR_ORDER)
        self.lun_rotation = (self.lun_rotation + offset + 1) % luns
        return cmd


class _StubArray:
    """Just enough of an SsdArray for one channel's dispatch decisions."""

    def __init__(self, luns_per_channel, busy):
        self.geometry = SimpleNamespace(luns_per_channel=luns_per_channel)
        self.channels = [SimpleNamespace(channel_id=0)]
        self.luns = {
            (0, lun_id): SimpleNamespace(key=(0, lun_id), is_busy=lun_id in busy)
            for lun_id in range(luns_per_channel)
        }
        self.started = []

    def lun(self, channel_id, lun_id):
        return self.luns[(channel_id, lun_id)]

    def start(self, cmd):
        self.started.append(cmd)


@st.composite
def _channel_states(draw):
    luns = draw(st.integers(min_value=1, max_value=4))
    commands = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=luns - 1),
                st.sampled_from(list(CommandSource)),
                st.sampled_from(list(CommandKind)),
                st.sampled_from([0, 0, 1, 150, 2_500]),  # enqueue-time step
                st.booleans(),  # eligible
                st.sampled_from([None, -2, -1, 0, 1, 2]),  # priority hint
            ),
            max_size=24,
        )
    )
    return {
        "luns": luns,
        "commands": commands,
        "busy": draw(st.sets(st.integers(min_value=0, max_value=luns - 1))),
        "lun_rotation": draw(st.integers(min_value=0, max_value=luns - 1)),
        "fair_rotation": draw(
            st.lists(st.integers(min_value=0, max_value=3), min_size=luns, max_size=luns)
        ),
        "hints": draw(st.sampled_from([True, True, False])),
        "tick": draw(st.sampled_from([0, 100, 1_000])),
    }


@pytest.mark.parametrize("policy", list(SsdSchedulerPolicy), ids=lambda p: p.name)
@given(state=_channel_states())
@settings(max_examples=200, deadline=None)
def test_dispatch_matches_reference_algorithm(policy, state):
    """Until the channel has nothing eligible left, every dispatch starts
    exactly the command the earlier algorithm starts -- whatever LUN its
    rotation began at and whatever each LUN's FAIR rotation was."""
    config = SchedulerConfig(
        policy=policy,
        read_deadline_ns=300,
        write_deadline_ns=3_000,
        erase_deadline_ns=10_000,
        starvation_age_ns=2_500,  # one enqueue-time step: ties the threshold
        use_priority_hints=state["hints"],
    )
    sim = Simulator()
    array = _StubArray(state["luns"], state["busy"])
    scheduler = SsdScheduler(sim, array, config, can_bind=lambda cmd: True)
    eligible_ids = set()
    scheduler._eligible = lambda cmd: cmd.id in eligible_ids
    queues = [[] for _ in range(state["luns"])]
    now = 0
    for lun_id, source, kind, step, eligible, hint in state["commands"]:
        now += step
        sim.advance_to(now)
        io = None if hint is None else IoRequest(IoType.READ, 0, hints={"priority": hint})
        cmd = _cmd(kind, source, lun=(0, lun_id), io=io)
        if eligible:
            eligible_ids.add(cmd.id)
        enqueue_held(scheduler, [cmd])
        queues[lun_id].append(cmd)
    for lun_id, rotation in enumerate(state["fair_rotation"]):
        scheduler._fair_rotation[(0, lun_id)] = rotation
    reference = _ReferenceChannel(
        policy,
        config,
        queues,
        state["busy"],
        lambda cmd: cmd.id in eligible_ids,
        state["lun_rotation"],
        state["fair_rotation"],
    )
    while True:
        expected = reference.dispatch(sim.now)
        started = scheduler._dispatch_on_channel(0)
        assert started == (expected is not None)
        if expected is None:
            break
        assert array.started[-1] is expected
        assert expected.id not in scheduler.queues[expected.lun_key]
        sim.advance_to(sim.now + state["tick"])
    assert scheduler.total_pending() == sum(len(queue) for queue in queues)
