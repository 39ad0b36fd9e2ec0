#!/usr/bin/env python3
"""Benchmark of the HCL simulator: host throughput and modelled results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kmer-sync --seed 1 --seconds 25 --trace 0

Workloads: kmer-sync, contig-agg, isx-pq, serving-zipf (see README.md
beside this file).  Everything runs in this one process on one thread.

``--trace 0`` runs the workload's instances (inputs built from ``--seed``)
back to back until ``--seconds`` have passed, with no tracing, and reports
the end-to-end metrics: host ops/s, set-up seconds, peak RSS and the
modelled cluster's simulated seconds and exact request latencies.
``--trace 1`` alternates untraced and span-traced runs of the first
instance and reports per-layer costs (see ``tracer.py``).

Every run re-imports ``repro`` from ``src/``, so set-up time covers
imports, inputs and cluster/container construction up to the first
simulated event.  Re-runs of an instance and traced runs must reproduce
the exact outputs (app digests, simulated seconds, every registry count
and the request latencies); any mismatch or failed verification counts
the run's ops as failed.  Host times are scaled by a pure-Python
calibration loop timed after every run (see :func:`measure`).  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A manifest (with the raw host times and the
calibration samples) and the traced run's spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import heapq
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: end-to-end metrics (--trace 0) and per-layer metrics (--trace 1), units
E2E_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
             "sim_s": "s", "sim_mean_us": "us", "sim_p999_us": "us"}
LAYER_UNITS = {
    "simnet.events": "count", "simnet.self_s": "s",
    "simnet.us_per_event": "us", "simnet.recycled_ratio": "ratio",
    "fabric.verbs": "count", "fabric.transfers": "count",
    "fabric.self_s": "s", "fabric.us_per_verb": "us",
    "rpc.invocations": "count", "rpc.self_s": "s", "rpc.us_per_invoke": "us",
    "rpc.retries": "count", "rpc.shed": "count",
    "rpc.queue_wait_sim_us": "us",
    "coalesce.flushes": "count", "coalesce.ops_per_flush": "ratio",
    "coalesce.self_s": "s", "coalesce.us_per_flush": "us",
    "core.ops": "count", "core.remote_ratio": "ratio", "core.self_s": "s",
    "core.us_per_op": "us", "cache.hit_ratio": "ratio",
    "serialization.size_calls": "count", "serialization.self_s": "s",
    "structures.ops": "count", "structures.self_s": "s",
    "structures.us_per_op": "us",
    "apps.self_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _pin_hash_seed(seed: int) -> None:
    """Re-exec with PYTHONHASHSEED fixed by the seed: the k-mer apps'
    simulated timelines depend on string hashing."""
    want = str(seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  env)


def _purge_repro() -> None:
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


class Probe:
    """Hooks on each fresh import of ``repro``: the set-up boundary (first
    ``Simulator.run``), the simulators that ran, and every exact simulated
    request latency the chosen histograms observe."""

    def __init__(self, latency_source: str):
        self.source = latency_source
        self.first_run_at: Optional[float] = None
        self.sims: List = []
        self.latencies: List[float] = []

    def _records(self, name: str) -> bool:
        if self.source == "serving":
            return name == "serving/latency"
        return name.startswith("rpcc") and name.endswith("/latency")

    def install(self) -> None:
        from repro.obs.registry import MetricsRegistry
        from repro.simnet.core import Simulator

        run, histogram = Simulator.run, MetricsRegistry.histogram
        probe = self

        def first_run(sim, *args, **kwargs):
            if probe.first_run_at is None:
                probe.first_run_at = time.perf_counter()
            if not any(s is sim for s in probe.sims):
                probe.sims.append(sim)
            return run(sim, *args, **kwargs)

        def exact_histogram(registry, name):
            hist = histogram(registry, name)
            if probe._records(name) and "observe" not in vars(hist):
                observe, record = hist.observe, probe.latencies.append

                def observe_exact(value):
                    record(value)
                    observe(value)

                hist.observe = observe_exact
            return hist

        Simulator.run = first_run
        MetricsRegistry.histogram = exact_histogram

    def counts(self) -> Dict:
        """Every exact count the run kept: kernel stats and each registry
        counter and histogram (n, total), per simulator."""
        from repro.obs.registry import registry_of
        from repro.simnet.stats import Counter, Histogram

        out: Dict = {}
        for i, sim in enumerate(self.sims):
            stats = sim.kernel_stats()
            out[f"{i}:events"] = stats["events_processed"]
            out[f"{i}:recycled"] = stats["events_recycled"]
            reg = registry_of(sim)
            for name in reg.names():
                metric = reg.get(name)
                if isinstance(metric, Counter):
                    out[f"{i}:{name}"] = metric.value
                elif isinstance(metric, Histogram):
                    out[f"{i}:{name}"] = (metric.n, metric.total)
        return out


@dataclass
class Run:
    instance: int
    setup_s: float
    wall_s: float
    ops: int
    failed: int
    sim_s: float
    exact: tuple
    counts: Dict
    latencies: List[float]
    traced: bool
    mismatch: bool = False
    crashed: bool = False


def run_instance(workload: str, seed: int, instance: int,
                 traced: bool = False):
    """Import ``repro`` afresh and run one instance; returns the
    :class:`Run` and the tracer (None unless ``traced``)."""
    from workloads import WORKLOADS

    fn, _k, source, attempted = WORKLOADS[workload]
    gc.collect()
    t0 = time.perf_counter()
    _purge_repro()
    probe = Probe(source)
    probe.install()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = fn((100 * seed + instance) % (1 << 31))
    except Exception:  # a failing app run is a result: report, go on
        traceback.print_exc()
        return Run(instance, 0.0, 0.0, attempted, attempted, 0.0,
                   ("crashed",), {}, [], traced, crashed=True), tracer
    t1 = time.perf_counter()
    if probe.first_run_at is None:
        raise RuntimeError(f"{workload} never started the simulator")
    counts = probe.counts()
    lat = probe.latencies
    exact = (out.fingerprint, out.sim_s, len(lat), sum(lat))
    run = Run(instance, probe.first_run_at - t0, t1 - probe.first_run_at,
              out.ops, out.failed, out.sim_s, exact, counts, lat, traced)
    return run, tracer


def _check_repeat(first: Run, again: Run) -> None:
    """A re-run must reproduce every exact output of the first run."""
    if again.exact != first.exact or again.counts != first.counts:
        again.mismatch = True
        again.failed = again.ops


def quantile(values: List[float], q: float) -> float:
    """Exact nearest-rank quantile: the smallest value with at least a
    share ``q`` of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def measure(workload: str, seed: int, seconds: float):
    """--trace 0: every instance once, then re-runs until time is up.

    Calibration samples come before the first run and after every run.
    Each run's host times are scaled by the mean of the samples on either
    side of it over :data:`REFERENCE_S`, because on a shared host the
    speed of the whole machine swings by tens of percent within seconds,
    which no number of repeats averages out.
    """
    from workloads import WORKLOADS

    k = WORKLOADS[workload][1]
    start = time.perf_counter()
    runs: List[Run] = []
    samples = [calibration_sample()]
    while True:
        inst = len(runs) % k
        run, _ = run_instance(workload, seed, inst)
        if len(runs) >= k:
            _check_repeat(runs[inst], run)
        runs.append(run)
        samples.append(calibration_sample())
        elapsed = time.perf_counter() - start
        if len(runs) > k and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    slowdown = [(before + after) / (2 * REFERENCE_S)
                for before, after in zip(samples, samples[1:])]
    timed = [(r, f) for r, f in zip(runs, slowdown) if not r.crashed]
    firsts = [r for r in runs[:k] if not r.crashed]
    if not firsts:
        raise RuntimeError(f"every {workload} instance failed")
    lat = [v for r in firsts for v in r.latencies]
    metrics = {
        "ops_per_s": statistics.median(r.ops / r.wall_s * f for r, f in timed),
        "setup_s": statistics.median(r.setup_s / f for r, f in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_s": statistics.fmean(r.sim_s for r in firsts),
        "sim_mean_us": statistics.fmean(lat) * 1e6,
        "sim_p999_us": quantile(lat, 0.999) * 1e6,
    }
    extra = {"host_ops_per_s": statistics.median(r.ops / r.wall_s
                                                 for r, _f in timed),
             "host_setup_s": statistics.median(r.setup_s for r, _f in timed),
             "sim_p50_us": quantile(lat, 0.5) * 1e6,
             "latency_samples": len(lat), "instances": k}
    return runs, metrics, extra, samples


def _sum(counts: Dict, suffix: str, prefix: str = "") -> float:
    total = 0.0
    for key, value in counts.items():
        name = key.split(":", 1)[1]
        if name.endswith(suffix) and name.startswith(prefix):
            total += value
    return total


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(run: Run, tracer, untraced_wall: float) -> Dict[str, float]:
    """Per-layer numbers from one traced run and the registry counts."""
    c, self_s, calls = run.counts, tracer.self_s, tracer.calls
    events = sum(v for k, v in c.items() if k.endswith(":events"))
    recycled = sum(v for k, v in c.items() if k.endswith(":recycled"))
    verbs = _sum(c, "/verbs", "nic")
    invocations = _sum(c, "/invocations", "rpcc")
    flushes = _sum(c, "/agg_flushes")
    local, remote = _sum(c, "/local"), _sum(c, "/remote")
    hits, misses = _sum(c, "/cache_hits"), _sum(c, "/cache_misses")
    qwait = [v for k, v in c.items()
             if k.split(":", 1)[1].startswith("rpc")
             and k.endswith("/queue_wait")]
    structures = calls["structures"]
    return {
        "simnet.events": events,
        "simnet.self_s": self_s["simnet"],
        "simnet.us_per_event": _per(self_s["simnet"], events, 1e6),
        "simnet.recycled_ratio": _per(recycled, events),
        "fabric.verbs": verbs,
        "fabric.transfers": _sum(c, "switch/transits")
        + _sum(c, "switch/fused_transits"),
        "fabric.self_s": self_s["fabric"],
        "fabric.us_per_verb": _per(self_s["fabric"], verbs, 1e6),
        "rpc.invocations": invocations,
        "rpc.self_s": self_s["rpc"],
        "rpc.us_per_invoke": _per(self_s["rpc"], invocations, 1e6),
        "rpc.retries": _sum(c, "/retries", "rpcc")
        + _sum(c, "rpc/window_retries"),
        "rpc.shed": _sum(c, "serving/shed"),
        "rpc.queue_wait_sim_us": _per(sum(t for _n, t in qwait),
                                      sum(n for n, _t in qwait), 1e6),
        "coalesce.flushes": flushes,
        "coalesce.ops_per_flush": _per(_sum(c, "/agg_ops"), flushes),
        "coalesce.self_s": self_s["coalesce"],
        "coalesce.us_per_flush": _per(self_s["coalesce"], flushes, 1e6),
        "core.ops": local + remote,
        "core.remote_ratio": _per(remote, local + remote),
        "core.self_s": self_s["core"],
        "core.us_per_op": _per(self_s["core"], local + remote, 1e6),
        "cache.hit_ratio": _per(hits, hits + misses),
        "serialization.size_calls": calls["serialization"],
        "serialization.self_s": self_s["serialization"],
        "structures.ops": structures,
        "structures.self_s": self_s["structures"],
        "structures.us_per_op": _per(self_s["structures"], structures, 1e6),
        "apps.self_s": self_s["apps"],
        "trace.unattributed_s": run.wall_s - sum(self_s.values()),
        "trace.overhead_ratio": run.wall_s / untraced_wall,
    }


def measure_traced(workload: str, seed: int, seconds: float):
    """--trace 1: untraced/traced pairs of instance 0 until time is up."""
    start = time.perf_counter()
    runs: List[Run] = []
    rows: List[Dict[str, float]] = []
    samples = [calibration_sample()]
    while True:
        plain, _ = run_instance(workload, seed, 0)
        traced, tracer = run_instance(workload, seed, 0, traced=True)
        first = runs[0] if runs else plain
        _check_repeat(first, plain)
        _check_repeat(first, traced)
        runs += [plain, traced]
        if plain.crashed or traced.crashed:
            raise RuntimeError(f"{workload} instance 0 failed")
        rows.append(layer_metrics(traced, tracer, plain.wall_s))
        samples.append(calibration_sample())
        elapsed = time.perf_counter() - start
        if elapsed * (len(rows) + 1) / len(rows) > seconds:
            break
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in LAYER_UNITS}
    extra = {"pairs": len(rows), "spans": len(tracer)}
    return runs, metrics, extra, samples, tracer


#: calibration-loop seconds on the reference host; host-time metrics are
#: scaled to a host on which :func:`calibration_sample` takes this long
REFERENCE_S = 0.075


def calibration_sample() -> float:
    """Seconds one fixed pure-Python loop takes: a small event loop over
    generators, a heap, tuples and a dict, the kinds of work the simulator
    does.  It runs no repository code, so it measures the host."""
    heap, table, seq = [], {}, itertools.count()

    def proc(pid):
        acc = 0.0
        for i in range(20):
            key = (pid, i % 7)
            table[key] = table.get(key, 0) + i
            acc += yield (i % 5) * 1e-6
        return acc

    gc.collect()
    t0 = time.perf_counter()
    for pid in range(2000):
        heapq.heappush(heap, (0.0, next(seq), proc(pid), None))
    while heap:
        now, _, gen, value = heapq.heappop(heap)
        try:
            delay = gen.send(value)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, next(seq), gen, delay))
    return time.perf_counter() - t0


def _git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _src_digest() -> str:
    """sha1 over src/repro's Python files: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha1()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _pin_hash_seed(args.seed)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.trace:
        runs, metrics, extra, samples, tracer = measure_traced(
            args.workload, args.seed, args.seconds)
        units = LAYER_UNITS
    else:
        runs, metrics, extra, samples = measure(
            args.workload, args.seed, args.seconds)
        tracer, units = None, E2E_UNITS

    attempted = sum(r.ops for r in runs)
    failed = sum(r.failed for r in runs)
    mismatches = sum(r.mismatch for r in runs)
    correct = failed == 0 and mismatches == 0
    manifest = {
        "argv": sys.argv, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_rev": _git_rev(), "src_sha1": _src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "gc": {"enabled": gc.isenabled(), "threshold": gc.get_threshold()},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "calibration_s": samples, "reference_s": REFERENCE_S,
        "runs": [{"instance": r.instance, "setup_s": r.setup_s,
                  "wall_s": r.wall_s, "traced": r.traced,
                  "ops": r.ops, "failed": r.failed, "sim_s": r.sim_s,
                  "mismatch": r.mismatch} for r in runs],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics, **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    with open(stem + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    if tracer is not None:
        with gzip.open(stem + ".spans.jsonl.gz", "wt", compresslevel=1,
                       encoding="utf-8") as fh:
            tracer.write(fh)

    print(f"# {args.workload} seed={args.seed} runs={len(runs)} "
          f"calibration_s={statistics.median(samples):.4f} "
          f"failed_frac={failed / attempted:g}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:28s} {value:14.6g}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
