"""Tests of the failure rule, of the traced run as a pure observer, and
of the open-loop workload against the committed E20 row.

Run with ``python3 -m pytest simbench`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import scenarios
from repro import IoStatus, Simulation, small_config
from repro.workloads import RandomWriterThread
from run import layer_metrics, result_line, span_failures
from scenarios import Built, after_fill, check_run, execute, summary_digest
from spans import LAYERS, LayerTracer


def _small_run() -> Built:
    simulation = Simulation(small_config(seed=7))
    return after_fill(simulation, RandomWriterThread("writer", count=400))


def test_mismatched_digest_counts_as_a_failed_run():
    good = execute(_small_run, None)
    assert good.failures == []
    assert 0 < good.fill_s < good.wall_s
    assert execute(_small_run, good.digest).failures == []  # deterministic
    bad = execute(_small_run, "0" * 64)
    assert len(bad.failures) == 1 and "digest" in bad.failures[0]

    result = result_line([good, bad], {"wall_s": 1.0}, [{"name": "wall_s", "unit": "s"}])
    assert result == {
        "correct": False,
        "attempted": 2,
        "failed": 1,
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
    }


def test_traced_run_is_a_pure_observer():
    plain = execute(_small_run, None)
    with LayerTracer() as tracer:
        tracer.calibrate(repeats=1, n=1_000)
        traced = execute(_small_run, plain.digest, tracer)
    assert traced.failures == []
    assert span_failures(traced) == []
    totals = traced.trace.layer_totals()
    for layer in LAYERS:
        assert totals[layer][1] > 0, layer
    metrics = layer_metrics([traced])
    assert 0 < metrics["span_overhead_s"] < traced.wall_s
    parts = metrics["span_overhead_s"] + metrics["unattributed_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS
    )
    assert parts == pytest.approx(traced.wall_s)


def test_open_loop_workload_reproduces_the_e20_legacy_row():
    """The open-loop workload is the committed E20 legacy 64k point of
    BENCH_overload.json (backlog 10,213, p99 1080 ms)."""
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCH_overload.json").read_text())
    assert bench["duration_ms"] == scenarios.OVERLOAD_MS
    (row,) = [r["legacy"] for r in bench["ramp"] if r["legacy"]["offered_iops"] == 64_000]
    simulation, load = scenarios.WORKLOADS["overload_open_64k"].build(42, False)
    simulation.os._retain_ios = True  # as E20's retain_completed_ios, set after the build
    result = simulation.run()
    assert check_run(simulation, result, summary_digest(result), None) == []
    ok = [
        io.complete_time - io.issue_time
        for io in simulation.os.completed_ios
        if io.status is IoStatus.OK and io.thread_name == load.name
    ]
    assert len(ok) == row["admitted_ok"]
    assert round(float(np.percentile(ok, 99)) / 1e6, 4) == row["p99_ms"]
    assert result.os_queue_high_watermark == row["backlog_high_watermark"]


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_workload_reproduces_its_pinned_digest(name):
    workload = scenarios.WORKLOADS[name]
    record = execute(lambda: workload.build(scenarios.DEFAULT_SEED, False), workload.pinned_digest)
    assert record.failures == []
