"""E19 -- Crash recovery: power loss, remount strategies and durability.

A power loss freezes the device mid-workload: volatile state (write
buffer unless battery-backed, cached translation pages, in-flight
programs) is discarded, durable state (flash + OOB metadata) survives,
and the remount rebuilds the mapping through one of two strategies.
Three panels:

* **Strategy x FTL** -- full OOB scan-rebuild pays mount time
  proportional to every written page; checkpoint+journal pays a small
  replay instead, having already paid checkpoint writes at runtime.
* **Checkpoint interval** -- the knob between those two costs: shorter
  intervals write more mapping pages during the run (runtime write
  amplification) and replay fewer journal records at mount.
* **Buffer durability** -- battery-backed RAM preserves buffered writes
  across the loss; plain RAM loses them (they were never acknowledged:
  the volatile buffer is write-through, so no *acknowledged* write is
  ever lost either way -- the durability audit enforces exactly that).

Every run executes with ``sanitize=True``: the post-mount divergence
check and durability audit raise on any violation, so the panels double
as an end-to-end proof of crash consistency.
"""

import random

from repro import FaultPlan, FtlKind, RecoveryStrategy, Simulation, small_config
from repro.workloads import RandomWriterThread

from benchmarks.common import bench_config, print_series

FTLS = ["page", "dftl", "hybrid"]
STRATEGIES = [RecoveryStrategy.OOB_SCAN, RecoveryStrategy.CHECKPOINT_JOURNAL]
CHECKPOINT_INTERVALS_NS = [5_000_000, 20_000_000, 80_000_000]
CRASH_NS = 8_000_000
RANDOM_CRASH_RUNS = 108  # 9 crash points x 3 FTLs x 2 strategies x 2 modes


def crash_bench_config(
    ftl="page",
    strategy=RecoveryStrategy.OOB_SCAN,
    battery=True,
    at_ns=CRASH_NS,
):
    config = bench_config()
    config.controller.ftl = FtlKind(ftl)
    config.controller.write_buffer_pages = 32
    config.controller.write_buffer_battery_backed = battery
    config.crash.strategy = strategy
    config.sanitize = True
    config.reliability.fault_plan = FaultPlan().power_loss(
        at_ns=at_ns, off_ns=1_000_000
    )
    return config


def run_one(config, count=4000):
    simulation = Simulation(config)
    simulation.add_thread(RandomWriterThread("writer", count=count, depth=16))
    result = simulation.run()
    assert not result.incomplete, "crash workload did not drain after remount"
    return result


def run_strategy_panel():
    rows = {}
    for ftl in FTLS:
        for strategy in STRATEGIES:
            result = run_one(crash_bench_config(ftl=ftl, strategy=strategy))
            summary = result.summary()
            rows[(ftl, strategy.value)] = {
                "mount_ms": summary["mount_time_ms"],
                "scanned": summary["recovery_scanned_pages"],
                "replayed": summary["recovery_replayed_records"],
                "ckpt_pages": summary["checkpoint_pages_written"],
                "lost": summary["lost_writes"],
            }
    return rows


def run_interval_panel():
    rows = {}
    for interval in CHECKPOINT_INTERVALS_NS:
        config = crash_bench_config(
            strategy=RecoveryStrategy.CHECKPOINT_JOURNAL
        )
        config.crash.checkpoint_interval_ns = interval
        summary = run_one(config).summary()
        rows[interval] = {
            "mount_ms": summary["mount_time_ms"],
            "replayed": summary["recovery_replayed_records"],
            "ckpt_pages": summary["checkpoint_pages_written"],
        }
    return rows


def run_durability_panel():
    rows = {}
    for battery in [True, False]:
        summary = run_one(crash_bench_config(battery=battery)).summary()
        rows[battery] = {
            "lost": summary["lost_writes"],
            "torn": summary["torn_pages"],
        }
    return rows


def run_experiment():
    return run_strategy_panel(), run_interval_panel(), run_durability_panel()


def test_e19_crash_recovery(benchmark):
    strategy_rows, interval_rows, durability_rows = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    print_series(
        "E19 recovery strategy x FTL",
        [
            [ftl, strat, r["mount_ms"], r["scanned"], r["replayed"], r["lost"]]
            for (ftl, strat), r in strategy_rows.items()
        ],
        ["ftl", "strategy", "mount ms", "scanned", "replayed", "lost"],
    )
    print_series(
        "E19 checkpoint interval",
        [
            [ns / 1e6, r["mount_ms"], r["replayed"], r["ckpt_pages"]]
            for ns, r in interval_rows.items()
        ],
        ["interval ms", "mount ms", "replayed", "ckpt pages"],
    )
    print_series(
        "E19 buffer durability",
        [
            ["battery" if b else "volatile", r["lost"], r["torn"]]
            for b, r in durability_rows.items()
        ],
        ["buffer", "lost writes", "torn pages"],
    )
    for ftl in FTLS:
        oob = strategy_rows[(ftl, "oob_scan")]
        ckpt = strategy_rows[(ftl, "checkpoint_journal")]
        # The scan pays per written page; the checkpoint reads only the
        # mapping checkpoint plus a journal replay.
        assert oob["scanned"] > 0
        assert ckpt["scanned"] < oob["scanned"]
        assert ckpt["replayed"] > 0
        # ...having bought that with runtime mapping writes (WA).
        assert ckpt["ckpt_pages"] > oob["ckpt_pages"]
    # The page-level FTLs' mount time is pure mapping reconstruction, so
    # the checkpoint strategy must win outright there.
    for ftl in ["page", "dftl"]:
        assert (
            strategy_rows[(ftl, "checkpoint_journal")]["mount_ms"]
            < strategy_rows[(ftl, "oob_scan")]["mount_ms"]
        )
    # Shape: longer checkpoint intervals -> fewer mapping pages written
    # at runtime, more journal records replayed at mount.
    ckpt_pages = [interval_rows[ns]["ckpt_pages"] for ns in CHECKPOINT_INTERVALS_NS]
    replayed = [interval_rows[ns]["replayed"] for ns in CHECKPOINT_INTERVALS_NS]
    assert all(b <= a for a, b in zip(ckpt_pages, ckpt_pages[1:]))
    assert all(b >= a for a, b in zip(replayed, replayed[1:]))
    # Battery-backed RAM eliminates buffered-write loss: the only losses
    # left are torn in-flight programs (unacknowledged by definition).
    assert durability_rows[True]["lost"] == durability_rows[True]["torn"]
    assert durability_rows[False]["lost"] >= durability_rows[True]["lost"]


def run_randomized_audit():
    """The acceptance gauntlet: 100+ crashes at randomized virtual
    times across every FTL x strategy x durability combination, all
    with the sanitizer armed -- any lost acknowledged write or visible
    torn page raises SanitizerError and fails the run."""
    rng = random.Random(0xE19)
    losses = 0
    runs = 0
    combos = [
        (ftl, strategy, battery)
        for ftl in FTLS
        for strategy in STRATEGIES
        for battery in [True, False]
    ]
    while runs < RANDOM_CRASH_RUNS:
        ftl, strategy, battery = combos[runs % len(combos)]
        at_ns = rng.randint(20_000, 5_000_000)
        config = small_config(seed=rng.randint(0, 2**31))
        config.controller.ftl = FtlKind(ftl)
        config.controller.write_buffer_pages = 16
        config.controller.write_buffer_battery_backed = battery
        config.crash.strategy = strategy
        config.sanitize = True
        config.reliability.fault_plan = FaultPlan().power_loss(
            at_ns=at_ns, off_ns=200_000
        )
        simulation = Simulation(config)
        simulation.add_thread(RandomWriterThread("writer", count=300))
        result = simulation.run()
        assert not result.incomplete
        assert result.mount_reports[0].mapping_matches is True
        losses += result.power_losses
        runs += 1
    return runs, losses


def test_e19_randomized_durability_audit(benchmark):
    runs, losses = benchmark.pedantic(
        run_randomized_audit, rounds=1, iterations=1
    )
    print(f"E19 audit: {losses} power losses over {runs} randomized runs, "
          "0 durability violations")
    assert runs >= 100
    assert losses == runs
