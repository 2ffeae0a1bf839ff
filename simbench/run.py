"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 simbench/run.py --workload gc_steady_write --seed 1 --seconds 20 --trace 0

The workloads are defined in ``scenarios.py``; ``BENCHMARK.json`` at the
repository root names every metric with its unit.  One process runs one
workload, with no worker pool.

``--trace 0`` repeats the workload untraced for ``--seconds`` and
reports the end-to-end metrics: host seconds of set-up and of
``Simulation.run()`` (medians), completed simulated IOs and fired events
per host second, and peak RSS.  ``--trace 1`` alternates untraced and
traced runs for ``--seconds`` and reports the per-layer metrics from the
traced ones (see ``spans.py``; the tracer's own cost is calibrated once
per invocation and taken out of the layers), the split of the untraced
runs' host time between the sequential fill and the named phase, plus
counts of what the model did.

Every run is checked against the failure rule in ``scenarios.py``.  A
traced invocation also makes one untimed run with the runtime sanitizer
armed at the default seed, which must reproduce the pinned digest.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (simulation runs) and ``metrics``.  The same
object, with the environment and every run's samples, is written to
``.simbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_DIR = ROOT / ".simbench"

#: Untraced timed runs made even when they overrun ``--seconds``; a
#: traced invocation makes at least one untraced and one traced run.
#: Beyond these, another round starts only if it should end no later
#: than half a round past ``--seconds``.
MIN_RUNS = 3
#: Set-up samples before each untraced timed run.  One set-up takes
#: milliseconds, and the host's speed drifts over tens of seconds, so
#: the set-up median rests on many samples spread over the whole run.
SETUPS_PER_RUN = 10
#: Each set-up sample repeats the build until this much host time has
#: passed and reports the mean, so that no sample is a single
#: millisecond-long build.
SETUP_BATCH_S = 0.05
#: Calibration-loop samples before each timed round (see ``environment``).
CALIBRATION_PER_RUN = 3
#: Tolerance of the check that span self times add up to covered time.
SPAN_SUM_TOLERANCE_S = 1e-6


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def calibration_sample() -> float:
    """Host seconds of a fixed pure-Python loop: a slow or busy host
    shows in it."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def environment(calibration: list[float]) -> dict[str, object]:
    """What the numbers were measured on, with the median of the
    calibration samples taken before every timed round."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "calibration_s": statistics.median(calibration),
        "calibration_samples": len(calibration),
    }


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample(build) -> float:
    """Mean host seconds of one set-up, over a batch of builds."""
    gc.collect()
    builds = 0
    start = time.perf_counter()
    while True:
        build()
        builds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SETUP_BATCH_S:
            return elapsed / builds


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from scenarios import DEFAULT_SEED, WORKLOADS, execute
    from spans import LayerTracer

    workload = WORKLOADS[name]
    build = lambda: workload.build(seed, False)  # noqa: E731
    # At the default seed the pinned digest is expected; at any other
    # seed the first run's digest is, so later runs check determinism.
    expected = workload.pinned_digest if seed == DEFAULT_SEED else None

    setups, plain, traced, missing, calibration = [], [], [], [], []
    costs = None
    if trace:
        with LayerTracer() as tracer:
            costs = tracer.calibrate()
    start = time.perf_counter()
    deadline = start + seconds
    while len(plain) < (1 if trace else MIN_RUNS) or (
        time.perf_counter() + 0.5 * (time.perf_counter() - start) / len(plain) < deadline
    ):
        calibration += [calibration_sample() for _ in range(CALIBRATION_PER_RUN)]
        for _ in range(0 if trace else SETUPS_PER_RUN):
            setups.append(setup_sample(build))
        gc.collect()
        record = execute(build, expected)
        expected = expected or record.digest
        plain.append(record)
        if trace:
            gc.collect()
            with LayerTracer() as tracer:
                tracer.costs = costs
                record = execute(build, expected, tracer)
            missing = tracer.missing
            record.failures += span_failures(record)
            traced.append(record)
    runs = plain + traced
    if trace:
        gc.collect()
        runs.append(
            execute(lambda: workload.build(DEFAULT_SEED, True), workload.pinned_digest)
        )

    counts = plain[0].counts
    wall_s = statistics.median(r.wall_s for r in plain)
    if not trace:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "sim_ios_per_host_s": counts["completed_ios"] / wall_s,
            "events_per_host_s": counts["core.engine.events"] / wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        metrics = layer_metrics(traced)
        metrics["trace_overhead_s"] = metrics["traced_wall_s"] - wall_s
        metrics["fill_s"] = statistics.median(r.fill_s for r in plain)
        metrics["phase_s"] = statistics.median(r.wall_s - r.fill_s for r in plain)
        metrics.update(
            (key, value) for key, value in counts.items() if key != "completed_ios"
        )
    return {
        "runs": runs,
        "metrics": metrics,
        "missing_entry_points": missing,
        "span_costs": costs,
        "calibration": calibration,
    }


def span_failures(record) -> list[str]:
    """The traced run's accounting must close: self times of all spans
    add up to the time the outermost spans cover, which lies within the
    run's wall time (so layer self times plus ``unattributed_s`` are the
    traced ``wall_s``)."""
    trace = record.trace
    self_total = sum(trace.self_s.values())
    failures = []
    if abs(self_total - trace.root_s) > SPAN_SUM_TOLERANCE_S:
        failures.append(f"span self times sum to {self_total} s, spans cover {trace.root_s} s")
    if trace.root_s > record.wall_s + SPAN_SUM_TOLERANCE_S:
        failures.append(f"spans cover {trace.root_s} s of a {record.wall_s} s run")
    return failures


def layer_metrics(traced: list) -> dict[str, float]:
    """Medians over the traced runs of each layer's self time (the
    tracer's estimated cost taken out), calls and share of the traced
    run without that cost, plus the cost itself and what no layer
    covers.  Layer self times, ``span_overhead_s`` and
    ``unattributed_s`` add up to the traced wall time."""
    per_run = []
    for record in traced:
        totals = record.trace.layer_totals()
        overhead_s = record.trace.overhead_s
        row = {"traced_wall_s": record.wall_s, "span_overhead_s": overhead_s}
        for layer, (self_s, calls) in totals.items():
            row[f"{layer}.self_s"] = self_s
            row[f"{layer}.calls"] = float(calls)
            row[f"{layer}.self_share"] = self_s / (record.wall_s - overhead_s)
        row["unattributed_s"] = (
            record.wall_s - overhead_s - sum(s for s, _ in totals.values())
        )
        calls = record.trace.calls
        row["core.engine.scheduled"] = float(record.trace.scheduled)
        row["core.tracing.describe_calls"] = float(calls.get("SsdArray._describe", 0))
        pumps = calls.get("SsdScheduler.pump", 0)
        row["controller.scheduler.dispatched_per_pump"] = (
            calls.get("SsdArray.start", 0) / pumps if pumps else 0.0
        )
        per_run.append(row)
    return {key: statistics.median(row[key] for row in per_run) for key in per_run[0]}


def result_line(runs: list, measured: dict[str, float], listed: list[dict]) -> dict:
    """The benchmark's result: every simulation run counts as attempted,
    and one that broke the failure rule as failed."""
    failed = sum(1 for run in runs if run.failures)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"simbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"simbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(outcome["calibration"])
    measured = outcome["metrics"]
    if {m["name"] for m in listed} != set(measured):
        print(f"simbench: measured {sorted(measured)} but BENCHMARK.json lists "
              f"{sorted(m['name'] for m in listed)}", file=sys.stderr)
        return 2

    runs = outcome["runs"]
    failed = [run for run in runs if run.failures]
    result = result_line(runs, measured, listed)

    print(f"simbench {args.workload} seed={args.seed} trace={args.trace}: {len(runs)} runs"
          + (" (the last sanitized, at the pinned seed)" if args.trace else ""))
    for m in listed:
        print(f"  {m['name']:<44} {measured[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_run_ratio':<44} {len(failed):>10} / {len(runs)} runs")
    for run in failed:
        print(f"  FAILED: {'; '.join(run.failures)}")
    for name in outcome["missing_entry_points"]:
        print(f"  warning: entry point {name} not found, its time goes to its caller")
    print("env " + json.dumps(env, sort_keys=True))

    OUTPUT_DIR.mkdir(exist_ok=True)
    report = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        env=env,
        samples=[
            {"setup_s": r.setup_s, "wall_s": r.wall_s, "fill_s": r.fill_s, "digest": r.digest,
             "traced": r.trace is not None, "failures": r.failures}
            for r in runs
        ],
        spans=[r.trace.self_s for r in runs if r.trace is not None],
        span_costs=outcome["span_costs"] and vars(outcome["span_costs"]),
        calibration_samples_s=outcome["calibration"],
    )
    path = OUTPUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
