"""E15 -- Scheduling internal operations non-obtrusively (paper §3).

The demo outline: "We will introduce the challenge of scheduling
internal operations as non-obtrusively as possible."

A bursty workload (large write bursts separated by long idle gaps) runs
against three systems:

1. FIFO scheduling, reactive watermark GC -- internal ops obtrude freely;
2. PRIORITY scheduling, reactive GC -- application commands overtake
   queued GC work, which then drains in the gaps *by itself*;
3. PRIORITY scheduling plus proactive idle-time GC up to a high
   free-block target -- bursts land on pre-freed blocks.

Expected shape: priorities alone already help; proactive idle GC buys a
further burst-latency improvement, but at a write-amplification cost
(collecting early means victims carry more live pages) -- the trade-off
the demo wants attendees to discover.
"""

from repro import SsdSchedulerPolicy
from repro.core import units
from repro.core.events import IoType
from repro.workloads.threads import Thread

from benchmarks.common import bench_config, print_series, run_threads


class BurstyWriter(Thread):
    """Bursts of random writes separated by idle gaps."""

    def __init__(
        self,
        name,
        bursts=12,
        burst_ops=1200,
        gap_ns=units.milliseconds(150),
    ):
        super().__init__(name)
        self.bursts = bursts
        self.burst_ops = burst_ops
        self.gap_ns = gap_ns
        self._burst = 0
        self._remaining = 0
        self._in_flight = 0

    def on_init(self, ctx):
        self._start_burst(ctx)

    def _start_burst(self, ctx):
        if self._burst >= self.bursts:
            ctx.finish()
            return
        self._burst += 1
        self._remaining = self.burst_ops
        for _ in range(16):
            self._issue(ctx)

    def _issue(self, ctx):
        if self._remaining <= 0:
            return
        self._remaining -= 1
        self._in_flight += 1
        ctx.write(ctx.rng("bursty").randrange(ctx.logical_pages))

    def on_io_completed(self, ctx, io):
        self._in_flight -= 1
        if self._remaining > 0:
            self._issue(ctx)
        elif self._in_flight == 0:
            ctx.schedule(self.gap_ns, self._start_burst, ctx)


def _run(mode: str):
    config = bench_config()
    config.controller.gc_greediness = 1  # minimal reactive watermark
    if mode != "fifo reactive":
        config.controller.scheduler.policy = SsdSchedulerPolicy.PRIORITY
    if mode == "priority + idle gc":
        config.controller.gc_idle_target = 12
        config.controller.gc_idle_threshold_ns = units.milliseconds(1)
    result = run_threads(config, [BurstyWriter("bursty")])
    writes = result.thread_stats["bursty"].latency[IoType.WRITE]
    return {
        "write_mean": writes.mean,
        "write_p99": writes.percentile(99),
        "waf": result.stats.write_amplification(),
        "idle_jobs": result.stats.counters["gc_idle_jobs"],
    }


def run_experiment():
    modes = ("fifo reactive", "priority reactive", "priority + idle gc")
    return {mode: _run(mode) for mode in modes}


def test_e15_nonobtrusive_internal_ops(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_series(
        "E15 scheduling internal operations under bursts",
        [
            [mode, row["write_mean"] / 1e3, row["write_p99"] / 1e6,
             row["waf"], row["idle_jobs"]]
            for mode, row in results.items()
        ],
        ["system", "write mean (us)", "write p99 (ms)", "write amp.", "idle jobs"],
    )
    fifo = results["fifo reactive"]
    prio = results["priority reactive"]
    idle = results["priority + idle gc"]
    # Shape: deprioritising internal ops already improves burst latency...
    assert prio["write_mean"] < fifo["write_mean"]
    # ...proactive idle GC improves it further (it actually ran)...
    assert idle["idle_jobs"] > 0
    assert idle["write_mean"] < 0.9 * prio["write_mean"]
    # ...but costs write amplification: early victims carry live data.
    assert idle["waf"] > prio["waf"]
