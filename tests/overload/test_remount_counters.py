"""Run counters survive a power cycle.

A power loss replaces the controller with a fresh incarnation.  The
summary describes the whole run, so each overload counter must equal
the sum over every incarnation and each queue high watermark the max.

Ground truth comes from sources that outlive the controller by design:
the shared trace recorder (every admission rejection, timeout and
degraded-mode transition is traced) and each incarnation's scheduler
watermark, read just before the power cycle replaces it.
"""

from __future__ import annotations

from repro import FaultPlan, Simulation, small_config
from repro.core import units
from repro.workloads import MixedWorkloadThread, RandomWriterThread

LOSS_NS = 3_000_000


def _overload_crash_config(degraded: bool):
    config = small_config(seed=42)
    config.trace_enabled = True
    o = config.overload
    o.enabled = True
    o.device_queue_bound = 4
    o.max_retries = 3
    o.command_timeout_ns = 2_000_000
    if degraded:
        o.degraded_enter_pending = 3
        o.degraded_exit_pending = 1
        o.degraded_admission_gap_ns = 20_000
    config.reliability.fault_plan = FaultPlan().power_loss(at_ns=LOSS_NS, off_ns=500_000)
    return config


def _run_overload_crash(degraded: bool):
    simulation = Simulation(_overload_crash_config(degraded))
    simulation.add_thread(RandomWriterThread("writer", count=1500))
    simulation.add_thread(MixedWorkloadThread("mixed", count=800, read_fraction=0.5))
    result = simulation.run()
    assert not result.incomplete
    assert result.summary()["power_losses"] == 1.0
    return result


def _traced_totals(result) -> dict[str, float]:
    """Overload counters recounted from the run-long trace."""
    totals = {
        "device_busy_rejections": 0,
        "shed_ios": 0,
        "throttled_ios": 0,
        "command_timeouts": 0,
        "degraded_entries": 0,
    }
    reasons = {"queue-full": "device_busy_rejections", "shed": "shed_ios",
               "throttled": "throttled_ios"}
    degraded_ns = 0
    entered_at = None
    for record in result.tracer.records:
        if record.layer == "crash" and record.event == "power-loss":
            # The incarnation that was degraded stops being so at the loss.
            if entered_at is not None:
                degraded_ns += record.time_ns - entered_at
                entered_at = None
        if record.layer != "overload":
            continue
        if record.event == "reject":
            totals[reasons[record.detail.split()[0]]] += 1
        elif record.event == "timeout":
            totals["command_timeouts"] += 1
        elif record.event == "degraded-enter":
            totals["degraded_entries"] += 1
            entered_at = record.time_ns
        elif record.event == "degraded-exit":
            degraded_ns += record.time_ns - entered_at
            entered_at = None
    if entered_at is not None:
        degraded_ns += result.elapsed_ns - entered_at
    observed = {name: float(count) for name, count in totals.items()}
    observed["time_degraded_ms"] = units.to_milliseconds(degraded_ns)
    return observed


def _pre_loss_count(result, event: str) -> int:
    return sum(
        1 for record in result.tracer.filter(layer="overload", event=event)
        if record.time_ns < LOSS_NS
    )


def test_overload_counters_sum_over_incarnations():
    result = _run_overload_crash(degraded=False)
    # The first incarnation did reject IOs, so dropping it is visible.
    assert _pre_loss_count(result, "reject") > 0
    summary = result.summary()
    for name, expected in _traced_totals(result).items():
        assert summary[name] == expected, name


def test_degraded_mode_counters_sum_over_incarnations():
    result = _run_overload_crash(degraded=True)
    assert _pre_loss_count(result, "degraded-enter") > 0
    summary = result.summary()
    for name, expected in _traced_totals(result).items():
        assert abs(summary[name] - expected) < 1e-9, name


def test_device_queue_watermark_is_max_over_incarnations():
    config = small_config(seed=42)
    config.host.max_outstanding = 64
    config.reliability.fault_plan = FaultPlan().power_loss(
        at_ns=38_000_000, off_ns=500_000
    )
    simulation = Simulation(config)
    simulation.add_thread(RandomWriterThread("burst", 400))
    simulation.add_thread(
        MixedWorkloadThread("slow", 1500, read_fraction=0.9), depends_on=["burst"]
    )
    peaks: list[int] = []
    power_cycle = simulation._coordinator.power_cycle

    def recording_power_cycle(loss):
        peaks.append(simulation.controller.scheduler.queue_high_watermark)
        return power_cycle(loss)

    simulation._coordinator.power_cycle = recording_power_cycle
    result = simulation.run()
    assert not result.incomplete
    peaks.append(simulation.controller.scheduler.queue_high_watermark)
    assert len(peaks) == 2
    # The pre-crash burst is the deeper one, so losing it is visible.
    assert peaks[0] > peaks[1]
    assert result.summary()["device_queue_high_watermark"] == float(max(peaks))
    assert result.device_queue_high_watermark == max(peaks)
