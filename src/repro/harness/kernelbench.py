"""Wall-clock throughput microbenchmark of the DES kernel itself.

Every figure in the reproduction is bounded by how many simulation events
the kernel can retire per wall-clock second — the fabric, RPC, and
container models all reduce to timeouts, resource grants, and process
resumes.  This module measures that number on a fixed reference workload
(100 processes each yielding 2000 short timeouts, the shape of a busy
rank charging fabric costs) so the perf trajectory is tracked from PR to
PR in ``BENCH_kernel.json``.

Used by ``python -m repro.cli kernelbench`` and
``benchmarks/test_kernel_throughput.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Optional

from repro.simnet.core import Simulator

__all__ = [
    "KernelBenchReport",
    "run_kernel_bench",
    "kernel_events_per_sec",
    "traced_kernel_bench",
    "emit_bench_json",
    "SEED_BASELINE_EVENTS_PER_SEC",
    "REFERENCE_PROCS",
    "REFERENCE_TIMEOUTS",
]

# The seed kernel measured on the reference workload before this
# optimization pass (200,200 events in 0.52 s — see docs/PERFORMANCE.md).
SEED_BASELINE_EVENTS_PER_SEC = 384_000

REFERENCE_PROCS = 100
REFERENCE_TIMEOUTS = 2000


@dataclass
class KernelBenchReport:
    """One measurement of kernel event throughput."""

    procs: int
    timeouts_per_proc: int
    pooling: bool
    events_processed: int
    events_recycled: int
    wall_seconds: float
    events_per_sec: float
    sim_seconds: float
    speedup_vs_seed: float

    def rows(self):
        return [
            ["workload", f"{self.procs} procs x {self.timeouts_per_proc} timeouts"],
            ["pooling", "on" if self.pooling else "off"],
            ["events processed", f"{self.events_processed:,}"],
            ["events recycled", f"{self.events_recycled:,}"],
            ["wall time", f"{self.wall_seconds:.3f} s"],
            ["throughput", f"{self.events_per_sec:,.0f} events/s"],
            ["vs seed baseline (~384k)", f"{self.speedup_vs_seed:.2f}x"],
        ]


def run_kernel_bench(
    procs: int = REFERENCE_PROCS,
    timeouts_per_proc: int = REFERENCE_TIMEOUTS,
    pooling: bool = True,
    delay: float = 1e-6,
    registry=None,
) -> KernelBenchReport:
    """Run the reference workload once and report wall-clock throughput.

    The workload is deliberately kernel-bound: each process charges
    ``timeouts_per_proc`` short timeouts back to back, which exercises the
    near-future lane, the timeout pool, and the inlined resume loop — the
    same three paths every fabric charge rides.

    Pass a :class:`~repro.obs.MetricsRegistry` as ``registry`` to receive
    the post-run ``scheduler/*`` gauges.
    """
    sim = Simulator(pooling=pooling)

    def worker():
        timeout = sim.timeout
        for _ in range(timeouts_per_proc):
            yield timeout(delay)

    t0 = time.perf_counter()
    for _ in range(procs):
        sim.process(worker())
    sim.run()
    wall = time.perf_counter() - t0

    if registry is not None:
        from repro.obs import publish_scheduler_metrics

        publish_scheduler_metrics(sim, registry)
    stats = sim.kernel_stats()
    events = stats["events_processed"]
    evps = events / wall if wall > 0 else float("inf")
    return KernelBenchReport(
        procs=procs,
        timeouts_per_proc=timeouts_per_proc,
        pooling=pooling,
        events_processed=events,
        events_recycled=stats["events_recycled"],
        wall_seconds=wall,
        events_per_sec=evps,
        sim_seconds=sim.now,
        speedup_vs_seed=evps / SEED_BASELINE_EVENTS_PER_SEC,
    )


def kernel_events_per_sec(repeats: int = 3, **kwargs) -> KernelBenchReport:
    """Best-of-``repeats`` measurement (wall clock is noisy; sim is not)."""
    best: Optional[KernelBenchReport] = None
    for _ in range(max(1, repeats)):
        rep = run_kernel_bench(**kwargs)
        if best is None or rep.events_per_sec > best.events_per_sec:
            best = rep
    return best


def traced_kernel_bench(repeats: int = 3, **kwargs):
    """Best-of-``repeats`` run with wall-clock spans and a metrics registry.

    The kernel microbenchmark has no RPC pipeline to trace, so the spans
    here use a *wall-clock* tracer (``time.perf_counter``): one root
    ``kernelbench`` span with a ``kernel.repeat`` child per run, each
    annotated with its event count and throughput.  The registry mirrors
    the kernel stats (``kernel/events_processed`` etc.) so ``--metrics-out``
    works uniformly across the bench commands.

    Returns ``(best_report, tracer, registry)``.
    """
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer(clock=time.perf_counter)
    registry = MetricsRegistry()
    root = tracer.begin("kernelbench", attrs={"repeats": max(1, repeats)})
    best: Optional[KernelBenchReport] = None
    for i in range(max(1, repeats)):
        span = tracer.begin("kernel.repeat", parent=root, attrs={"repeat": i})
        rep = run_kernel_bench(registry=registry, **kwargs)
        tracer.finish(span)
        span.attrs["events"] = rep.events_processed
        span.attrs["events_per_sec"] = round(rep.events_per_sec)
        registry.counter("kernel/events_processed").add(rep.events_processed)
        registry.counter("kernel/events_recycled").add(rep.events_recycled)
        registry.histogram("kernel/wall_seconds").observe(rep.wall_seconds)
        if best is None or rep.events_per_sec > best.events_per_sec:
            best = rep
    tracer.finish(root)
    registry.gauge("kernel/best_events_per_sec").set(best.events_per_sec)
    return best, tracer, registry


def emit_bench_json(report: KernelBenchReport, path: str = "BENCH_kernel.json") -> str:
    """Write the measurement next to the repo so CI and future PRs can diff it."""
    payload = {
        "benchmark": "kernel_events_per_sec",
        "seed_baseline_events_per_sec": SEED_BASELINE_EVENTS_PER_SEC,
        **asdict(report),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
