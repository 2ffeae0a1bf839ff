"""The simulation facade: wire the four layers together and run.

:class:`Simulation` is the main entry point of the library::

    from repro import Simulation, small_config
    from repro.workloads import RandomWriterThread

    sim = Simulation(small_config())
    sim.add_thread(RandomWriterThread("writer", count=2000))
    result = sim.run()
    print(result.stats.report())

The simulation ends when the event queue drains (all threads finished
and every internal operation completed) or when ``max_time_ns`` is hit.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.controller import SsdController
from repro.core import units
from repro.core.config import SimulationConfig
from repro.core.engine import Simulator
from repro.core.power import PowerLossEvent
from repro.core.rng import RandomSource
from repro.core.statistics import StatisticsGatherer
from repro.core.tracing import TraceRecorder
from repro.host.operating_system import OperatingSystem
from repro.reliability.crash import PowerCycleCoordinator


#: Run counters reported by :meth:`SimulationResult.summary`.  Each is
#: incremented under this name in ``StatisticsGatherer.counters``, the
#: run-long store every controller incarnation shares; a subsystem that
#: is disabled never increments its names, and a missing name reads 0.
RUN_COUNTERS = (
    "gc_collected_blocks",
    "gc_relocated_pages",
    "wl_migrations",
    # Reliability subsystem.
    "corrected_reads",
    "uncorrectable_reads",
    "read_retries",
    "parity_rebuilds",
    "program_fails",
    "erase_fails",
    "runtime_retired_blocks",
    "writes_rejected",
    # Crash/recovery subsystem.
    "power_losses",
    "recovery_scanned_pages",
    "recovery_replayed_records",
    "lost_writes",
    "torn_pages",
    "checkpoints_taken",
    "checkpoint_pages_written",
    # Overload robustness layer.
    "host_rejections",
    "device_busy_rejections",
    "shed_ios",
    "throttled_ios",
    "command_timeouts",
    "io_retries",
    "io_retries_exhausted",
    "busy_ios",
    "timeout_ios",
    "degraded_entries",
)

#: Store counters outside the summary that experiments read off a result.
EXTRA_COUNTERS = ("gc_copybacks", "wl_migrated_pages")


class SimulationResult:
    """Everything measured in one run.

    Run counters live in ``stats.counters`` and read as attributes too
    (``result.gc_collected_blocks``); the attributes set here are the
    gauges: state read once at the end of the run.
    """

    def __init__(self, simulation: "Simulation") -> None:
        self.config = simulation.config
        self.stats = simulation.stats
        self.tracer = simulation.tracer
        self.elapsed_ns = simulation.sim.now
        self.processed_events = simulation.sim.processed_events
        controller = simulation.controller
        counters = self.stats.counters
        self.thread_stats: dict[str, StatisticsGatherer] = {
            name: record.stats
            for name, record in simulation.os._records.items()
            if record.stats is not None
        }
        self.wear = controller.wear_leveler.wear_statistics()
        #: Blocks the array has retired at runtime (physical state: the
        #: array outlives every controller incarnation).
        self.retired_blocks = controller.array.retired_blocks
        reliability = controller.reliability
        #: Virtual time at which the device degraded to read-only mode;
        #: None when it never did (or reliability is disabled).
        self.read_only_entry_ns = reliability.read_only_entry_ns if reliability else None
        self.channel_utilisation = controller.array.channel_utilisation()
        self.lun_utilisation = controller.array.lun_utilisation()
        #: The queue high-watermarks are pure observers tracked
        #: unconditionally, so unbounded legacy configurations expose
        #: their runaway growth too (the E20 comparison depends on this).
        #: Earlier controller incarnations left their peak in the store.
        self.os_queue_high_watermark = simulation.os.os_queue_high_watermark
        self.device_queue_high_watermark = max(
            counters["device_queue_high_watermark"],
            controller.scheduler.queue_high_watermark,
        )
        overload = controller.overload
        self.time_degraded_ns = counters["time_degraded_ns"] + (
            overload.open_degraded_ns() if overload else 0
        )
        #: Bytes held by the array-backed device state: FTL mapping and
        #: version tables plus the flash-array bitmaps and per-block
        #: metadata (scale regressions show up in every run summary).
        self.device_memory_bytes = (
            controller.array.state.memory_bytes() + controller.ftl.table_memory_bytes()
        )
        coordinator = simulation._coordinator
        self.mount_reports = coordinator.reports if coordinator is not None else []
        #: True when the run ended with IOs still outstanding: either the
        #: time limit cut the workload short, or the system stalled.
        self.incomplete = simulation.os.outstanding > 0
        self.outstanding_at_end = simulation.os.outstanding
        #: Filled only when ``host.retain_completed_ios`` is set.
        self.completed_ios = simulation.os.completed_ios
        #: Cached :meth:`summary`; a result is immutable once built.
        self._summary_cache: Optional[dict[str, float]] = None

    def __getattr__(self, name: str) -> int:
        if name in RUN_COUNTERS or name in EXTRA_COUNTERS:
            return self.stats.counters[name]
        raise AttributeError(name)

    @property
    def flash_commands(self) -> dict[tuple[str, str], int]:
        return dict(self.stats.flash_commands)

    def summary(self) -> dict[str, float]:
        """Flat metrics dictionary: statistics plus internal activity."""
        if self._summary_cache is not None:
            return dict(self._summary_cache)
        counters = self.stats.counters
        summary = self.stats.summary()
        summary.update((name, float(counters[name])) for name in RUN_COUNTERS)
        summary.update(
            {
                "elapsed_ms": units.to_milliseconds(self.elapsed_ns),
                "wear_spread": self.wear["spread"],
                "retired_blocks": float(self.retired_blocks),
                "mean_channel_utilisation": (
                    sum(self.channel_utilisation) / len(self.channel_utilisation)
                ),
                "device_memory_bytes": float(self.device_memory_bytes),
                # -1 when the device never went read-only.
                "read_only_entry_ms": (
                    units.to_milliseconds(self.read_only_entry_ns)
                    if self.read_only_entry_ns is not None
                    else -1.0
                ),
                "mount_time_ms": units.to_milliseconds(counters["mount_time_ns"]),
                "os_queue_high_watermark": float(self.os_queue_high_watermark),
                "device_queue_high_watermark": float(
                    self.device_queue_high_watermark
                ),
                "time_degraded_ms": units.to_milliseconds(self.time_degraded_ns),
            }
        )
        self._summary_cache = summary
        return dict(summary)

    def report(self) -> str:
        c = self.stats.counters
        lines = [
            self.stats.report(),
            f"virtual time  : {units.format_time(self.elapsed_ns)}"
            f" ({self.processed_events} events)",
            f"GC            : {c['gc_collected_blocks']} blocks, "
            f"{c['gc_relocated_pages']} pages relocated "
            f"({c['gc_copybacks']} by copyback)",
            f"WL            : {c['wl_migrations']} migrations, "
            f"wear spread {self.wear['spread']:.0f} "
            f"(sd {self.wear['stddev']:.2f})",
            "channel util  : " + " ".join(f"{u:.0%}" for u in self.channel_utilisation),
            f"device memory : {self.device_memory_bytes / (1 << 20):.1f} MiB "
            "(mapping tables + bitmaps + block metadata)",
        ]
        if any(c[name] for name in (
            "corrected_reads", "read_retries", "parity_rebuilds",
            "uncorrectable_reads", "runtime_retired_blocks",
        )):
            lines.append(
                f"reliability   : {c['corrected_reads']} corrected, "
                f"{c['read_retries']} retries, {c['parity_rebuilds']} rebuilds, "
                f"{c['uncorrectable_reads']} lost, "
                f"{c['runtime_retired_blocks']} blocks retired"
            )
        if any(c[name] for name in (
            "host_rejections", "device_busy_rejections", "shed_ios",
            "command_timeouts", "io_retries",
        )):
            lines.append(
                f"overload      : {c['host_rejections'] + c['device_busy_rejections']} "
                f"rejected, {c['shed_ios']} shed, {c['command_timeouts']} timed out, "
                f"{c['io_retries']} retries ({c['io_retries_exhausted']} exhausted), "
                f"{units.format_time(self.time_degraded_ns)} degraded"
            )
        if c["power_losses"]:
            lines.append(
                f"crashes       : {c['power_losses']} power losses, "
                f"{units.format_time(c['mount_time_ns'])} mounting, "
                f"{c['recovery_scanned_pages']} pages scanned, "
                f"{c['lost_writes']} writes lost"
            )
        return "\n".join(lines)


class Simulation:
    """One configured system: engine + array + controller + OS + threads."""

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator(sanitize=config.sanitize)
        self.rng = RandomSource(config.seed, sanitize=config.sanitize)
        self.tracer = TraceRecorder(enabled=config.trace_enabled)
        self.stats = StatisticsGatherer("global")
        #: Power losses scheduled by the fault plan (crash consistency is
        #: a baseline-device property: it does NOT need
        #: ``reliability.enabled``).  With none scheduled, nothing below
        #: is armed and runs are bit-identical to a crash-free simulator.
        plan = config.reliability.fault_plan
        self._power_losses: list[PowerLossEvent] = (
            sorted(plan.power_losses, key=lambda event: event.at_ns)
            if plan is not None
            else []
        )
        crash_armed = bool(self._power_losses)
        self.controller = SsdController(
            self.sim,
            config,
            rng=self.rng,
            tracer=self.tracer,
            stats=self.stats,
            crash_armed=crash_armed,
        )
        self.os = OperatingSystem(
            self.sim, config, self.controller, self.stats, self.tracer, self.rng
        )
        self._coordinator: Optional[PowerCycleCoordinator] = None
        if crash_armed:
            self._coordinator = PowerCycleCoordinator(self)
            self.os.track_inflight = True
            self.os.auditor = self._coordinator.auditor
        self._ran = False

    def add_thread(
        self, thread: object, depends_on: Iterable[str] = (), collect_stats: bool = True
    ) -> None:
        """Register a workload thread (see ``OperatingSystem.add_thread``)."""
        self.os.add_thread(thread, depends_on=depends_on, collect_stats=collect_stats)

    def run(self, max_time_ns: Optional[int] = None) -> SimulationResult:
        """Run to completion (or to the time limit) and collect results."""
        if self._ran:
            raise RuntimeError("a Simulation instance runs once; build a new one")
        self._ran = True
        limit = max_time_ns if max_time_ns is not None else self.config.max_time_ns
        self.os.start()
        if self._coordinator is not None:
            # Segmented execution: run to each scheduled power loss, tear
            # the device down and remount it, then continue.  A loss that
            # lands while the device is still off/mounting from the
            # previous one fires immediately at the current instant.
            for loss in self._power_losses:
                if limit is not None and loss.at_ns >= limit:
                    break
                if loss.at_ns > self.sim.now:
                    self.sim.run(until=loss.at_ns)
                self._coordinator.power_cycle(loss)
        self.sim.run(until=limit)
        if self.config.sanitize:
            # At a drained queue every EventHandle must have fired or been
            # cancelled; anything else means engine bookkeeping diverged.
            self.sim.drain_check()
        return SimulationResult(self)
