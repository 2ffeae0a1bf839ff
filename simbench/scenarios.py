"""The benchmark's three workloads and the rule that decides a failed run.

Each workload builds one complete simulation from a seed: the seed is
the simulation config's seed (every RNG stream of the model) and, for
the open-loop workload, the seed of the generated arrival trace.  The
model has no hardware reference, so nothing here is an accuracy check:
a run is *correct* when it reproduces exactly what the model computes.

Failure rule -- a run fails when any of these hold:

* ``controller.check_invariants()`` raises;
* IOs are left outstanding at the end (``result.incomplete``);
* the SHA-256 of the serialized ``summary()`` differs from the digest
  expected for that workload and seed: the workload's pinned digest at
  :data:`DEFAULT_SEED`, or, at any other seed, the digest of the first
  run made with that seed (determinism).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro import Simulation, SimulationConfig, SsdGeometry, demo_config
from repro.core import units
from repro.core.config import FtlKind
from repro.core.simulation import SimulationResult
from repro.core.statistics import serialize_summary
from repro.workloads import (
    MixedWorkloadThread,
    RandomWriterThread,
    TraceReplayThread,
    generate_poisson_trace,
    precondition_sequential,
)

from spans import LayerTracer, TraceSnapshot

#: The seed the pinned digests were captured at (the config default).
DEFAULT_SEED = 42

# Every workload starts with the same kind of sequential fill, so each
# named phase below is sized to take about three quarters of the host
# time of ``Simulation.run()`` or more (``RunRecord.phase_s``).
#: Random overwrites after the sequential fill of ``gc_steady_write``.
GC_WRITES = 8_000
#: Operations after the sequential fill of ``dftl_read_zipf``.
DFTL_OPS = 36_000
DFTL_CMT_ENTRIES = 1_024
#: Offered load and length of ``overload_open_64k``: the committed E20
#: legacy row (BENCH_overload.json, 64k: backlog 10,213, p99 1080 ms).
OVERLOAD_IOPS = 64_000
OVERLOAD_MS = 200


#: A fully built simulation, ready to run, and the thread of its named
#: phase, which starts once the sequential fill has finished.
Built = tuple[Simulation, object]


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed, sanitize -> the built workload.
    build: Callable[[int, bool], Built]
    #: Digest of the summary at :data:`DEFAULT_SEED`.
    pinned_digest: str


def after_fill(simulation: Simulation, phase: object) -> Built:
    """Fill every logical page sequentially, then start ``phase``."""
    fill = precondition_sequential(simulation.config.logical_pages)
    simulation.add_thread(fill)
    simulation.add_thread(phase, depends_on=[fill.name])
    return simulation, phase


def _gc_steady_write(seed: int, sanitize: bool) -> Built:
    """Page FTL on ``demo_config``, filled sequentially, then closed-loop
    (depth 4) uniform random overwrites: GC, allocation and the write
    path do the work, device queues stay shallow."""
    simulation = Simulation(demo_config(seed=seed, sanitize=sanitize))
    return after_fill(simulation, RandomWriterThread("writer", count=GC_WRITES))


def _overload_open_64k(seed: int, sanitize: bool) -> Built:
    """The E20 legacy point: E20 geometry, overload handling off, an
    open-loop Poisson trace at 64k IOPS, 50/50 read/write.  The loop is
    open in virtual time only, so the generator cannot lag in host time;
    the OS queue grows into the thousands."""
    config = SimulationConfig(
        geometry=SsdGeometry(
            channels=4,
            luns_per_channel=2,
            blocks_per_lun=32,
            pages_per_block=32,
            page_size_bytes=2048,
        ),
        seed=seed,
        sanitize=sanitize,
    )
    config.controller.overprovisioning = 0.15
    trace = generate_poisson_trace(
        OVERLOAD_IOPS,
        units.milliseconds(OVERLOAD_MS),
        config.logical_pages,
        read_fraction=0.5,
        seed=seed,
    )
    return after_fill(Simulation(config), TraceReplayThread("load", trace, timed=True))


def _dftl_read_zipf(seed: int, sanitize: bool) -> Built:
    """DFTL with a 1024-entry mapping cache, far below the ~14k logical
    pages, then closed-loop (depth 4) 90% reads, Zipf theta 0.9: the read
    path, the mapping cache and statistics do the work, GC is idle."""
    config = demo_config(seed=seed, sanitize=sanitize)
    config.controller.ftl = FtlKind.DFTL
    config.controller.dftl.cmt_entries = DFTL_CMT_ENTRIES
    return after_fill(
        Simulation(config),
        MixedWorkloadThread("mixed", count=DFTL_OPS, read_fraction=0.9, zipf_theta=0.9),
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "gc_steady_write",
            _gc_steady_write,
            "42cc860f3c33b52983ef581efb094302446f9d52491810487825e125a4b041ea",
        ),
        Workload(
            "overload_open_64k",
            _overload_open_64k,
            "1dfe94077ab101562af308f27d9ad007582a2b0ab36c4ff63647ef50924f9048",
        ),
        Workload(
            "dftl_read_zipf",
            _dftl_read_zipf,
            "562194a4d807edbff78fbee61fb55162245836ffd9af3c01a5a0dc6602ace21f",
        ),
    )
}


def summary_digest(result: SimulationResult) -> str:
    """SHA-256 of the byte-stable serialized summary."""
    return hashlib.sha256(serialize_summary(result.summary()).encode()).hexdigest()


@dataclass
class RunRecord:
    """One simulation run: host times, what it computed, why it failed."""

    setup_s: float
    wall_s: float
    #: The part of ``wall_s`` before the named phase's thread started.
    fill_s: float
    digest: str
    failures: list[str]
    #: :func:`model_counts` of the result.
    counts: dict[str, float]
    #: :meth:`LayerTracer.snapshot` taken as the run returned.
    trace: Optional[TraceSnapshot] = None


def check_run(
    simulation: Simulation, result: SimulationResult, digest: str, expected: Optional[str]
) -> list[str]:
    """The failure rule; an empty list means the run is correct."""
    failures = []
    try:
        simulation.controller.check_invariants()
    except AssertionError as exc:
        failures.append(f"invariants: {exc}")
    if result.incomplete:
        failures.append(f"{result.outstanding_at_end} IOs left outstanding")
    if expected is not None and digest != expected:
        failures.append(f"summary digest {digest[:16]} != expected {expected[:16]}")
    return failures


def execute(
    build: Callable[[], Built],
    expected: Optional[str],
    tracer: Optional[LayerTracer] = None,
) -> RunRecord:
    """Build and run one simulation, timing set-up and run separately.

    Set-up is everything before the first event: config, trace
    generation, ``Simulation(...)`` and thread registration.  The run is
    ``Simulation.run()`` until the event queue drains; the moment the
    named phase's thread starts splits it into fill and phase.  With a
    ``tracer`` (already installed), its spans cover exactly the run.
    """
    start = time.perf_counter()
    simulation, phase = build()
    setup_s = time.perf_counter() - start
    phase_started = []
    on_init = phase.on_init

    def start_phase(ctx: object) -> None:
        phase_started.append(time.perf_counter())
        on_init(ctx)

    phase.on_init = start_phase
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    result = simulation.run()
    wall_s = time.perf_counter() - start
    trace = tracer.snapshot() if tracer is not None else None
    digest = summary_digest(result)
    return RunRecord(
        setup_s,
        wall_s,
        (phase_started[0] if phase_started else start + wall_s) - start,
        digest,
        check_run(simulation, result, digest, expected),
        model_counts(result),
        trace,
    )


def model_counts(result: SimulationResult) -> dict[str, float]:
    """What the model computed that the per-layer report shows (virtual
    time, so identical on every run of one workload and seed)."""
    summary = result.summary()
    reads = summary["completed_reads"]
    return {
        "completed_ios": summary["completed_ios"],
        "core.engine.events": float(result.processed_events),
        "host.os_queue_hw": float(result.os_queue_high_watermark),
        "controller.scheduler.device_queue_hw": float(result.device_queue_high_watermark),
        "controller.gc.collected_blocks": float(result.gc_collected_blocks),
        "controller.gc.relocated_pages": float(result.gc_relocated_pages),
        "controller.gc.write_amplification": summary["write_amplification"],
        "controller.ftl.mapping_ios_per_read": summary["mapping_ios"] / reads if reads else 0.0,
        "hardware.flash_commands": float(sum(result.flash_commands.values())),
        "hardware.channel_utilisation": summary["mean_channel_utilisation"],
        "core.tracing.records_kept": float(len(result.tracer)),
        "model.sim_iops": summary["throughput_iops"],
        "model.read_p99_ms": summary["read_p99_ns"] / 1e6,
        "model.write_p99_ms": summary["write_p99_ns"] / 1e6,
        "model.elapsed_ms": summary["elapsed_ms"],
    }
