"""Host-time spans around the simulator's layer boundaries.

The traced benchmark run times every call that crosses into a layer and
charges each layer its *self* time: the span's duration minus the time
of the spans it caused.  Spans come from two sources, both installed by
patching classes for the duration of the traced run only (nothing under
``src/`` knows about them):

* the engine's ``post``/``post_at``/``schedule``/``schedule_at`` wrap
  every callback so that it fires inside a span named after the module
  that owns the callback;
* the public entry points in :data:`ENTRY_POINTS` run inside a span of
  their layer.

``Simulator.run`` is itself an entry point, so the engine's own dispatch
loop is the self time of ``core.engine``.  Spans are aggregated per name
as they close (a traced run opens hundreds of thousands of them), never
stored one by one.

Every span costs host time of its own: the wrapper call and the clock
reads land partly in the span and partly in its parent, and the patched
``post`` builds a wrapper for every event it schedules.
:meth:`LayerTracer.calibrate` measures these costs on empty spans, and
:meth:`TraceSnapshot.layer_totals` takes them out of each span's self
time, so they show as :attr:`TraceSnapshot.overhead_s` rather than as
the work of the layer that happened to hold the span.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.engine import Simulator

#: The layers the traced run reports, named after the modules they cover.
LAYERS = (
    "core.engine",
    "workloads",
    "host",
    "controller",
    "controller.ftl",
    "controller.scheduler",
    "controller.gc",
    "controller.allocation",
    "hardware",
    "core.statistics",
    "core.tracing",
)

#: Module prefix -> layer, most specific first.  A callback whose module
#: matches none of these still gets a span, but no layer: its self time
#: is part of ``unattributed_s``.
MODULE_LAYERS = (
    ("repro.controller.ftl", "controller.ftl"),
    ("repro.controller.scheduler", "controller.scheduler"),
    ("repro.controller.gc", "controller.gc"),
    ("repro.controller.allocation", "controller.allocation"),
    ("repro.controller", "controller"),
    ("repro.core.engine", "core.engine"),
    ("repro.core.statistics", "core.statistics"),
    ("repro.core.tracing", "core.tracing"),
    ("repro.workloads", "workloads"),
    ("repro.host", "host"),
    ("repro.hardware", "hardware"),
)

_ENGINE_METHODS = ("post", "post_at", "schedule", "schedule_at")

#: (layer, module, class or "*" for every class the module defines,
#: methods).  Methods ending in ``_done`` are flash-command completion
#: callbacks, which the controller invokes directly, not through the
#: engine.  A name the code no longer has is skipped and reported by
#: :meth:`LayerTracer.install`.  Predicates the SSD scheduler asks once
#: per queued command on every scan (``SsdArray.can_start``,
#: ``WriteAllocator.can_bind``/``has_capacity``) are left unwrapped: a
#: span would cost more than the check, and the scan is the scheduler's
#: work, so their time stays with it.
ENTRY_POINTS = (
    ("core.engine", "repro.core.engine", "Simulator", ("run",)),
    ("workloads", "repro.workloads.synthetic", "*", ("next_io",)),
    ("workloads", "repro.workloads.trace_replay", "TraceReplayThread", ("next_io",)),
    ("host", "repro.host.operating_system", "OperatingSystem",
     ("issue", "_dispatch", "_interrupt", "_deliver")),
    ("host", "repro.host.schedulers", "*", ("add", "pop")),
    ("controller", "repro.controller.controller", "SsdController",
     ("submit_io", "enqueue_command", "_command_complete", "complete_io")),
    ("controller", "repro.controller.write_buffer", "WriteBuffer",
     ("write", "serve_read", "trim")),
    ("controller", "repro.controller.temperature", "*",
     ("record_write", "is_hot", "classify", "hint", "mark_cold")),
    ("controller", "repro.controller.wear_leveling", "WearLeveler",
     ("on_erase", "_read_done", "_program_done", "_erase_done")),
    ("controller", "repro.controller.overload", "OverloadGovernor",
     ("admit", "note_progress", "arm_timeout")),
    ("controller.ftl", "repro.controller.ftl.page_ftl", "PageMapFtl",
     ("read", "write", "trim", "_read_done", "_write_done")),
    ("controller.ftl", "repro.controller.ftl.dftl", "DftlFtl",
     ("read", "write", "trim", "_read_done", "_write_done", "_fetch_done",
      "_write_tp", "_tp_write_done")),
    ("controller.ftl", "repro.controller.ftl.hybrid", "HybridFtl",
     ("read", "write", "trim", "_read_done", "_log_write_done")),
    ("controller.scheduler", "repro.controller.scheduler", "SsdScheduler",
     ("enqueue", "pump")),
    ("controller.gc", "repro.controller.gc", "GarbageCollector",
     ("maybe_trigger", "_erase_only_done", "_copyback_done", "_relocation_read_done",
      "_relocation_program_done", "_erase_done")),
    ("controller.allocation", "repro.controller.allocation", "WriteAllocator",
     ("place_write", "place_internal", "bind_program",
      "gc_stream_for", "open_block_ids", "note_erased", "release_open_block")),
    ("hardware", "repro.hardware.array", "SsdArray", ("start",)),
    ("core.statistics", "repro.core.statistics", "StatisticsGatherer",
     ("record_io", "record_flash_command")),
    ("core.tracing", "repro.core.tracing", "TraceRecorder", ("record",)),
    ("core.tracing", "repro.hardware.array", "SsdArray", ("_describe",)),
)


def layer_of_module(module: str) -> Optional[str]:
    """The layer that owns ``module``, or None when no layer does."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class SpanTimer:
    """Nested spans aggregated per name into self time and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: Spans closed directly inside spans of each name.
        self.children: dict[str, int] = {}
        #: Events posted from inside spans of each name (see :meth:`note_post`).
        self.posts: dict[str, int] = {}
        #: Total duration of the spans that had no parent.
        self.root_s = 0.0
        #: Open spans, innermost last:
        #: [start, time of closed children, closed children, posts].
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset with spans open")
        self.self_s.clear()
        self.calls.clear()
        self.children.clear()
        self.posts.clear()
        self.root_s = 0.0

    def open(self) -> None:
        self._stack.append([self.clock(), 0.0, 0, 0])

    def note_post(self) -> None:
        """Count one event posted by the innermost open span."""
        if self._stack:
            self._stack[-1][3] += 1

    def close(self, name: str) -> None:
        start, children_s, children, posts = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - children_s)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.children[name] = self.children.get(name, 0) + children
        self.posts[name] = self.posts.get(name, 0) + posts
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent[2] += 1
        else:
            self.root_s += duration


@dataclass(frozen=True)
class SpanCosts:
    """Host seconds the tracer itself adds, per occurrence."""

    #: Charged to the parent of each span: the wrapper call, and the
    #: parts of opening and closing outside the span's own clock reads.
    in_parent: float = 0.0
    #: Charged to each span itself: what lies between its clock reads.
    in_span: float = 0.0
    #: Charged to the span that posts an event: the patched ``post``.
    per_post: float = 0.0


def _noop(*args: Any) -> None:
    pass


def _spanned(fn: Callable[..., Any], name: str, timer: SpanTimer) -> Callable[..., Any]:
    open_span, close_span = timer.open, timer.close

    @functools.wraps(fn)
    def span(*args: Any, **kwargs: Any) -> Any:
        open_span()
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(name)

    span.__spanned__ = True  # type: ignore[attr-defined]
    return span


class LayerTracer:
    """Installs the spans of one traced run and folds them into layers.

    Use as a context manager around building *and* running the
    simulation: patched methods must be in place before the simulation
    is constructed, because components keep bound methods of each other.
    """

    def __init__(
        self,
        entry_points: tuple = ENTRY_POINTS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.timer = SpanTimer(clock)
        self.entry_points = entry_points
        #: Span name -> layer (None: the span belongs to no layer).
        self.layer_of: dict[str, Optional[str]] = {}
        #: Events handed to the engine while installed.
        self.scheduled = 0
        #: Entry points listed but absent from the code.
        self.missing: list[str] = []
        #: Measured by :meth:`calibrate`; zero until then.
        self.costs = SpanCosts()
        self._restore: list[tuple[type, str, Any]] = []
        self._delegating = False

    # -- installation ------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        for layer, module_name, class_name, methods in self.entry_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            if class_name == "*":
                classes = [
                    value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module_name
                ]
            elif isinstance(getattr(module, class_name, None), type):
                classes = [getattr(module, class_name)]
            else:
                self.missing.append(f"{module_name}.{class_name}")
                continue
            for cls in classes:
                for method in methods:
                    if method in cls.__dict__:
                        self._wrap(cls, method, layer)
                    elif class_name != "*":
                        self.missing.append(f"{cls.__qualname__}.{method}")
        for method in _ENGINE_METHODS:
            self._patch(Simulator, method, self._engine_method(getattr(Simulator, method)))

    def uninstall(self) -> None:
        while self._restore:
            cls, name, original = self._restore.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, replacement: Any) -> None:
        self._restore.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _wrap(self, cls: type, method: str, layer: str) -> None:
        name = f"{cls.__qualname__}.{method}"
        self.layer_of[name] = layer
        raw = cls.__dict__[method]
        if isinstance(raw, staticmethod):
            self._patch(cls, method, staticmethod(_spanned(raw.__func__, name, self.timer)))
        else:
            self._patch(cls, method, _spanned(raw, name, self.timer))

    def _engine_method(self, original: Callable[..., Any]) -> Callable[..., Any]:
        traced_callback = self.traced_callback
        note_post = self.timer.note_post

        @functools.wraps(original)
        def schedule(sim: Any, when: int, fn: Callable[..., Any], *args: Any) -> Any:
            if self._delegating:
                # Another patched method delegated here (``schedule``
                # calls ``schedule_at``) and already wrapped ``fn``.
                return original(sim, when, fn, *args)
            self.scheduled += 1
            note_post()
            self._delegating = True
            try:
                return original(sim, when, traced_callback(fn), *args)
            finally:
                self._delegating = False

        return schedule

    def traced_callback(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` firing inside a span of its owning module's layer."""
        if getattr(getattr(fn, "__func__", fn), "__spanned__", False):
            return fn  # an entry point already opens its own span
        module = getattr(fn, "__module__", None) or "?"
        name = f"callback {module}"
        if name not in self.layer_of:
            self.layer_of[name] = layer_of_module(module)
        open_span, close_span = self.timer.open, self.timer.close

        def callback(*args: Any) -> None:
            open_span()
            try:
                fn(*args)
            finally:
                close_span(name)

        return callback

    def calibrate(self, repeats: int = 5, n: int = 20_000) -> SpanCosts:
        """Measure :class:`SpanCosts` with the tracer's own clock (installed
        tracer only): medians over ``repeats`` of ``n`` empty spans inside
        a parent, against ``n`` bare calls, and of ``n`` posts through the
        patched engine against ``n`` through the original one."""
        clock = self.timer.clock
        original_post = next(
            original for cls, name, original in self._restore
            if cls is Simulator and name == "post"
        )
        in_parent, in_span, per_post = [], [], []
        for _ in range(repeats):
            timer = SpanTimer(clock)
            empty = _spanned(_noop, "empty", timer)
            start = clock()
            for _ in range(n):
                _noop()
            bare = clock() - start
            timer.open()
            for _ in range(n):
                empty()
            timer.close("parent")
            in_parent.append((timer.self_s["parent"] - bare) / n)
            in_span.append(timer.self_s["empty"] / n)

            sim = Simulator()
            start = clock()
            for _ in range(n):
                original_post(sim, 0, _noop)
            bare = clock() - start
            sim = Simulator()
            self.timer.open()  # so that note_post counts, as in a run
            start = clock()
            for _ in range(n):
                sim.post(0, _noop)
            patched = clock() - start
            self.timer.close("calibration")
            per_post.append((patched - bare) / n)
        self.timer.reset()
        self.scheduled = 0
        self.costs = SpanCosts(
            statistics.median(in_parent), statistics.median(in_span), statistics.median(per_post)
        )
        return self.costs

    # -- results -----------------------------------------------------
    def reset(self) -> None:
        """Forget everything measured so far (call right before the run)."""
        self.timer.reset()
        self.scheduled = 0

    def snapshot(self) -> "TraceSnapshot":
        """A copy of everything measured since the last :meth:`reset`."""
        return TraceSnapshot(
            dict(self.timer.self_s),
            dict(self.timer.calls),
            dict(self.layer_of),
            self.timer.root_s,
            self.scheduled,
            dict(self.timer.children),
            dict(self.timer.posts),
            self.costs,
        )


@dataclass(frozen=True)
class TraceSnapshot:
    """Span totals of one traced run."""

    #: Measured self time per span name, tracer costs included.
    self_s: dict[str, float]
    calls: dict[str, int]
    layer_of: dict[str, Optional[str]]
    #: Time covered by spans that had no parent.
    root_s: float
    #: Events handed to the engine.
    scheduled: int
    children: dict[str, int]
    posts: dict[str, int]
    costs: SpanCosts

    def overhead(self, name: str) -> float:
        """Estimated tracer seconds inside the self time of spans ``name``."""
        return (
            self.children.get(name, 0) * self.costs.in_parent
            + self.calls[name] * self.costs.in_span
            + self.posts.get(name, 0) * self.costs.per_post
        )

    @property
    def overhead_s(self) -> float:
        """Estimated tracer seconds inside all spans."""
        return sum(self.overhead(name) for name in self.self_s)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self seconds less the tracer's estimated cost, calls);
        every layer is present."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = self.layer_of.get(name)
            if layer is not None:
                totals[layer][0] += seconds - self.overhead(name)
                totals[layer][1] += self.calls[name]
        return {layer: (seconds, calls) for layer, (seconds, calls) in totals.items()}
