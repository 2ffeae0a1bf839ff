"""Second golden fixture set: full summaries and report text.

``tests/fixtures/golden_summaries_v2.json`` complements
``golden_summaries.json`` (see :mod:`tests.integration.golden`).  That
older file excludes the keys added after its capture; this one pins the
*whole* :func:`~repro.core.statistics.serialize_summary` output with no
exclusions, plus the exact :meth:`SimulationResult.report` text, for:

* one run per SSD scheduler policy (FIFO, PRIORITY, DEADLINE, FAIR),
  with reliability faults, wear levelling and GC all active, so every
  run counter of those subsystems is non-zero somewhere;
* one overload-on run without power loss: bounded host and device
  queues, degraded mode, command timeouts and host retries.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src python -m tests.integration.golden_v2
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro import Simulation, small_config
from repro.core import units
from repro.core.config import SimulationConfig, SsdSchedulerPolicy
from repro.core.statistics import serialize_summary
from repro.workloads import MixedWorkloadThread, RandomWriterThread

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "golden_summaries_v2.json"
)


def scheduler_scenario(policy: SsdSchedulerPolicy) -> SimulationConfig:
    """Reliability faults + eager wear levelling under one SSD policy."""
    config = small_config(seed=13)
    config.controller.scheduler.policy = policy
    config.controller.wear_leveling.erase_count_threshold = 2
    config.controller.wear_leveling.check_interval_erases = 8
    config.controller.wear_leveling.idle_factor = 0.25
    config.sanitize = True
    r = config.reliability
    r.enabled = True
    r.base_rber = 4e-4
    r.ecc_correctable_bits = 6
    r.max_read_retries = 2
    r.parity = True
    r.program_fail_probability = 0.002
    r.erase_fail_probability = 0.02
    r.spare_blocks_per_lun = 2
    return config


def overload_scenario() -> SimulationConfig:
    """Every overload mechanism armed and reachable, no power loss."""
    config = small_config(seed=5)
    config.host.max_outstanding = 64
    config.sanitize = True
    o = config.overload
    o.enabled = True
    o.host_queue_bound = 8
    o.device_queue_bound = 12
    o.command_timeout_ns = units.microseconds(1500)
    o.max_retries = 1
    o.io_deadline_ns = units.milliseconds(20)
    o.degraded_enter_pending = 10
    o.degraded_exit_pending = 4
    o.degraded_admission_gap_ns = units.microseconds(20)
    return config


def _workload(writes: int, mixed: int) -> list:
    return [
        RandomWriterThread("writer", count=writes),
        MixedWorkloadThread("mixed", count=mixed, read_fraction=0.5),
    ]


def scenarios() -> dict[str, tuple[SimulationConfig, list]]:
    cases: dict[str, tuple[SimulationConfig, list]] = {
        f"sched-{policy.value}": (scheduler_scenario(policy), _workload(4000, 800))
        for policy in SsdSchedulerPolicy
    }
    cases["overload"] = (overload_scenario(), _workload(1500, 800))
    return cases


def run_scenario(config: SimulationConfig, threads: Iterable) -> dict[str, str]:
    simulation = Simulation(config)
    for thread in threads:
        simulation.add_thread(thread)
    result = simulation.run()
    assert not result.incomplete, "scenario left outstanding IOs"
    return {"summary": serialize_summary(result.summary()), "report": result.report()}


def capture() -> dict[str, dict[str, str]]:
    return {name: run_scenario(config, threads)
            for name, (config, threads) in sorted(scenarios().items())}


def main() -> None:
    fixtures = capture()
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixtures)} golden summaries to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
