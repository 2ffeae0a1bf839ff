"""Controller-layer test harness: a controller without the OS layer."""

from __future__ import annotations

import pytest

from repro import small_config
from repro.controller import SsdController
from repro.core.engine import Simulator
from repro.core.events import IoRequest, IoType


class ControllerHarness:
    """Drives an :class:`SsdController` directly, playing the OS role.

    Like the real OS layer it enforces a queue-depth window
    (``max_outstanding``): the device never sees an unbounded backlog of
    writes whose invalidations have not happened yet.
    """

    def __init__(self, config, max_outstanding: int = 32):
        config.validate()
        self.config = config
        self.max_outstanding = max_outstanding
        self.sim = Simulator()
        self.controller = SsdController(self.sim, config)
        self.completed: list[IoRequest] = []
        self._waiting: list[IoRequest] = []
        self._outstanding = 0
        self.controller.on_io_complete = self._on_complete

    def _on_complete(self, io: IoRequest) -> None:
        self._outstanding -= 1
        self.completed.append(io)
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiting and self._outstanding < self.max_outstanding:
            io = self._waiting.pop(0)
            io.dispatch_time = self.sim.now
            self._outstanding += 1
            self.controller.submit_io(io)

    def submit(self, io_type: IoType, lpn: int, hints=None) -> IoRequest:
        io = IoRequest(io_type, lpn, thread_name="harness", hints=hints)
        io.issue_time = self.sim.now
        self._waiting.append(io)
        self._dispatch()
        return io

    def write(self, lpn: int, hints=None) -> IoRequest:
        return self.submit(IoType.WRITE, lpn, hints)

    def read(self, lpn: int, hints=None) -> IoRequest:
        return self.submit(IoType.READ, lpn, hints)

    def trim(self, lpn: int) -> IoRequest:
        return self.submit(IoType.TRIM, lpn)

    def run(self) -> None:
        self.sim.run()

    def write_sync(self, lpn: int, hints=None) -> IoRequest:
        io = self.write(lpn, hints)
        self.run()
        assert io.complete_time is not None, f"{io!r} did not complete"
        return io

    def read_sync(self, lpn: int, hints=None) -> IoRequest:
        io = self.read(lpn, hints)
        self.run()
        assert io.complete_time is not None, f"{io!r} did not complete"
        return io

    def fill_device(self) -> None:
        """Write the whole logical space once (synchronously batched)."""
        for lpn in range(self.config.logical_pages):
            self.write(lpn)
        self.run()


@pytest.fixture
def harness():
    return ControllerHarness(small_config())


def make_harness(mutate=None) -> ControllerHarness:
    config = small_config()
    if mutate is not None:
        mutate(config)
    return ControllerHarness(config)


def enqueue_held(scheduler, commands) -> None:
    """Enqueue without dispatching: a pump already in progress is a no-op."""
    scheduler._pumping = True
    try:
        for cmd in commands:
            scheduler.enqueue(cmd)
    finally:
        scheduler._pumping = False
