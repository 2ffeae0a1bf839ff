"""Run every workload, untraced and then traced, and print one table.

Usage (from the repository root)::

    python3 simbench/report.py --seed 42 --seconds 20

Each run is a separate ``run.py`` process, one after the other.  The
table lists every end-to-end and per-layer metric of ``BENCHMARK.json``
by name and unit, one column per workload, then each workload's failed
runs and the checks that the layer counts separate the workloads as
designed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "simbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_queue_depth(workload: str, seed: int) -> int:
    """The OS's limit on IOs outstanding at the device, as configured."""
    from scenarios import WORKLOADS

    simulation, _ = WORKLOADS[workload].build(seed, False)
    return simulation.config.host.max_outstanding


def separation_checks(layer: dict[str, dict], seed: int) -> list[tuple[str, bool]]:
    def value(workload: str, name: str) -> float:
        return layer[workload]["metrics"][name]["value"]

    closed = ("gc_steady_write", "dftl_read_zipf")
    return [
        ("GC collects >= 10x more blocks on gc_steady_write than on dftl_read_zipf",
         value("gc_steady_write", "controller.gc.collected_blocks")
         >= 10 * value("dftl_read_zipf", "controller.gc.collected_blocks")),
        ("OS queue reaches the thousands only on overload_open_64k",
         value("overload_open_64k", "host.os_queue_hw") >= 1000
         and all(value(w, "host.os_queue_hw") <= host_queue_depth(w, seed) for w in closed)),
        ("mapping IOs per read are non-zero only on dftl_read_zipf",
         value("dftl_read_zipf", "controller.ftl.mapping_ios_per_read") > 0
         and all(value(w, "controller.ftl.mapping_ios_per_read") == 0
                 for w in ("gc_steady_write", "overload_open_64k"))),
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results = {trace: {w: run(w, args.seed, seconds, trace) for w in workloads}
               for trace in (0, 1)}
    print(f"{'metric':<44} {'unit':<9}" + "".join(f"{w:>20}" for w in workloads))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for metric in spec[key]:
            name = metric["name"]
            cells = "".join(
                f"{results[trace][w]['metrics'][name]['value']:>20.6g}" for w in workloads
            )
            print(f"{name:<44} {metric['unit']:<9}{cells}")
    cells = "".join(
        f"{sum(results[t][w]['failed'] for t in (0, 1))}/"
        f"{sum(results[t][w]['attempted'] for t in (0, 1))}".rjust(20)
        for w in workloads
    )
    print(f"{'failed_run_ratio':<44} {'runs':<9}{cells}")
    checks = separation_checks(results[1], args.seed)
    for description, holds in checks:
        print(f"{'ok  ' if holds else 'FAIL'} {description}")
    correct = all(r["correct"] for by_workload in results.values() for r in by_workload.values())
    return 0 if correct and all(holds for _, holds in checks) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
