"""Tests of the span arithmetic and the layer attribution of the traced run.

Run with ``python3 -m pytest simbench`` from the repository root.
"""

from __future__ import annotations

from repro import Simulation, small_config
from repro.core.engine import Simulator
from repro.core.statistics import StatisticsGatherer
from repro.workloads import RandomWriterThread
from spans import (
    ENTRY_POINTS,
    LayerTracer,
    SpanCosts,
    SpanTimer,
    TraceSnapshot,
    layer_of_module,
)


class FakeClock:
    """A clock the test sets by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans_subtracts_children():
    clock = FakeClock()
    timer = SpanTimer(clock)
    timer.open()                # outer   [0, 10]
    clock.now = 1.0
    timer.open()                # child   [1, 4]
    clock.now = 2.0
    timer.open()                # grandchild [2, 3]
    clock.now = 3.0
    timer.close("grandchild")
    clock.now = 4.0
    timer.close("child")
    clock.now = 6.0
    timer.open()                # second child of the same name [6, 9]
    clock.now = 9.0
    timer.close("child")
    clock.now = 10.0
    timer.close("outer")
    clock.now = 11.0
    timer.open()                # a second root [11, 12]
    clock.now = 12.0
    timer.close("outer")

    assert timer.self_s == {"grandchild": 1.0, "child": 2.0 + 3.0, "outer": 4.0 + 1.0}
    assert timer.calls == {"grandchild": 1, "child": 2, "outer": 2}
    assert timer.children == {"grandchild": 0, "child": 1, "outer": 2}
    assert timer.root_s == 11.0
    assert sum(timer.self_s.values()) == timer.root_s


class TickingClock:
    """Advances by one on every read: all the time it measures is the
    tracer's own clock reads, none is work."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_calibrated_costs_take_the_tracers_own_time_out_of_every_layer():
    with LayerTracer(clock=TickingClock()) as tracer:
        assert tracer.calibrate(repeats=1, n=10) == SpanCosts(1.0, 1.0, 0.0)
        simulation = Simulation(small_config(seed=3))
        simulation.add_thread(RandomWriterThread("writer", count=50))
        tracer.reset()
        simulation.run()
    trace = tracer.snapshot()
    assert trace.root_s > 0
    assert trace.overhead_s == trace.root_s
    assert all(seconds == 0.0 for seconds, _ in trace.layer_totals().values())


def test_overhead_charges_children_calls_and_posts():
    trace = TraceSnapshot(
        self_s={"outer": 10.0, "inner": 3.0},
        calls={"outer": 1, "inner": 2},
        layer_of={"outer": "core.engine", "inner": "hardware"},
        root_s=13.0,
        scheduled=4,
        children={"outer": 2},
        posts={"outer": 1, "inner": 3},
        costs=SpanCosts(in_parent=0.5, in_span=0.25, per_post=0.125),
    )
    assert trace.overhead("outer") == 2 * 0.5 + 1 * 0.25 + 1 * 0.125
    assert trace.overhead("inner") == 2 * 0.25 + 3 * 0.125
    totals = trace.layer_totals()
    assert totals["core.engine"] == (10.0 - 1.375, 1)
    assert totals["hardware"] == (3.0 - 0.875, 2)
    assert trace.overhead_s + sum(s for s, _ in totals.values()) == trace.root_s


def test_callbacks_are_attributed_to_their_owning_module():
    def make(module):
        def callback(*args):
            pass

        callback.__module__ = module
        return callback

    gc_job = make("repro.controller.gc")
    ftl_done = make("repro.controller.ftl.dftl")
    unowned = make("elsewhere")
    sim = Simulator()
    engine_methods = dict(vars(Simulator))
    with LayerTracer(entry_points=()) as tracer:
        sim.post(5, gc_job)
        sim.post_at(7, ftl_done, 1)
        sim.schedule(3, gc_job)
        sim.schedule_at(9, unowned)
        sim.schedule(4, ftl_done, 2).cancel()
        sim.post(1, StatisticsGatherer().record_reliability_event, "retry", 0)
        sim.run()
    trace = tracer.snapshot()
    totals = trace.layer_totals()
    assert trace.scheduled == 6
    assert totals["controller.gc"][1] == 2
    assert totals["controller.ftl"][1] == 1  # the cancelled event never fired
    assert totals["core.statistics"][1] == 1
    assert trace.calls["callback elsewhere"] == 1
    assert trace.layer_of["callback elsewhere"] is None
    assert sum(calls for _, calls in totals.values()) == 4
    assert dict(vars(Simulator)) == engine_methods  # uninstalled


def test_entry_point_posted_as_callback_opens_one_span():
    entry = (("core.statistics", "repro.core.statistics", "StatisticsGatherer",
              ("record_reliability_event",)),)
    sim = Simulator()
    with LayerTracer(entry_points=entry) as tracer:
        stats = StatisticsGatherer()
        sim.post(1, stats.record_reliability_event, "retry", 0)
        sim.schedule(2, stats.record_reliability_event, "retry", 0)
        stats.record_reliability_event("retry", 0)
        sim.run()
    assert tracer.snapshot().calls == {"StatisticsGatherer.record_reliability_event": 3}
    assert tracer.scheduled == 2
    assert not hasattr(StatisticsGatherer.record_reliability_event, "__wrapped__")


def test_every_listed_entry_point_exists():
    with LayerTracer() as tracer:
        pass
    assert tracer.missing == []
    assert {layer for layer, *_ in ENTRY_POINTS} <= set(tracer.layer_of.values())


def test_layer_of_module_prefers_the_most_specific_layer():
    cases = {
        "repro.controller.ftl.page_ftl": "controller.ftl",
        "repro.controller.scheduler": "controller.scheduler",
        "repro.controller.write_buffer": "controller",
        "repro.core.engine": "core.engine",
        "repro.hardware.array": "hardware",
        "repro.workloads.trace_replay": "workloads",
        "repro.core.simulation": None,
        "repro.controllers": None,
    }
    for module, layer in cases.items():
        assert layer_of_module(module) == layer, module
