"""Command-line interface: run reproduction experiments without pytest.

::

    python -m repro.cli list                 # what can I run?
    python -m repro.cli fig1                 # the motivating test case
    python -m repro.cli fig5 --sizes 4096 1048576
    python -m repro.cli fig7 --apps isx kmer --nodes 2 4
    python -m repro.cli sweep --nodes 2 4 8 --ops 64 --size 65536

Each command builds the same scaled experiment as the corresponding bench
in ``benchmarks/`` and prints the paper-style table.  The pytest benches
remain the canonical, asserted versions; the CLI is for interactive
exploration (changing sizes, node counts, providers) without editing code.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.config import KB, MB, ares_like
from repro.harness import render_series, render_table


def _cmd_fig1(args) -> int:
    from benchmarks.test_fig1_motivation import _run_rpc, run_bcl, SCALE

    t_bcl, stages = run_bcl()
    t_cas = _run_rpc(lock_free=False)
    t_lf = _run_rpc(lock_free=True)
    print(render_table(
        "Fig 1 — motivating test",
        ["approach", "sim (s)", "extrapolated (s)", "speedup"],
        [["BCL", t_bcl, t_bcl * SCALE, 1.0],
         ["RPC with CAS", t_cas, t_cas * SCALE, t_bcl / t_cas],
         ["RPC lock-free", t_lf, t_lf * SCALE, t_bcl / t_lf]],
    ))
    return 0


def _cmd_fig5(args) -> int:
    from benchmarks import test_fig5_hybrid as f5

    sizes = args.sizes or f5.SIZES
    saved = f5.SIZES
    f5.SIZES = sizes
    try:
        for local, label in ((True, "intra-node"), (False, "inter-node")):
            sweep = f5._sweep(local=local)
            labels = [f"{s // KB}KB" if s < MB else f"{s // MB}MB"
                      for s in sizes]
            print(render_series(f"Fig 5 {label} bandwidth MB/s", "op size",
                                labels, sweep))
            print()
    finally:
        f5.SIZES = saved
    return 0


def _cmd_fig6(args) -> int:
    from benchmarks import conftest as bench_conf
    from benchmarks import test_fig6_scaling as f6

    bench_conf.set_scale(args.scale)
    series = {"hcl_umap_ins": [], "hcl_map_ins": [], "bcl_umap_ins": []}
    parts = args.partitions or f6.PART_SWEEP
    for p in parts:
        ui, _uf = f6._hcl_map_run(p, ordered=False)
        oi, _of = f6._hcl_map_run(p, ordered=True)
        bi, _bf = f6._bcl_map_run(p)
        series["hcl_umap_ins"].append(ui)
        series["hcl_map_ins"].append(oi)
        series["bcl_umap_ins"].append(bi)
    print(render_series("Fig 6a — insert throughput op/s", "partitions",
                        parts, series))
    if args.emit:
        import json

        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump({"partitions": list(parts), "series": series},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.emit}")
    return 0


def _suffixed(path: str, suffix: str) -> str:
    """``foo.json`` + ``bar`` -> ``foo_bar.json`` (append when no dot)."""
    if not suffix:
        return path
    if "." in path:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}_{suffix}.{ext}"
    return f"{path}_{suffix}"


class _ProfileRun:
    """CLI glue for ``--profile``: wrap the bench run, then emit reports.

    Inactive unless one of the profile flags was passed, in which case
    the wrapped block runs under :class:`repro.obs.WallProfiler`
    (cProfile underneath — the simulation code itself is untouched, so
    simulated results are identical either way).
    """

    def __init__(self, args, command: str):
        self.command = command
        self.top = getattr(args, "profile_top", 25)
        self.out = getattr(args, "profile_out", None)
        self.folded = getattr(args, "profile_folded", None)
        self.active = bool(getattr(args, "profile", False) or self.out
                           or self.folded)
        self._profiler = None
        self._ctx = None

    def __enter__(self):
        if self.active:
            from repro.obs import WallProfiler

            self._profiler = WallProfiler()
            self._ctx = self._profiler.profile()
            self._ctx.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._ctx is not None:
            self._ctx.__exit__(*exc)

    def scope(self, name: str):
        """Named wall phase inside the profiled block (no-op when off)."""
        if self._profiler is None:
            import contextlib

            return contextlib.nullcontext()
        return self._profiler.scope(name)

    def emit(self) -> None:
        """Print the profile table and write any requested outputs."""
        if not self.active:
            return
        from repro.obs import render_profile, write_folded, write_profile_json

        payload = self._profiler.report(top_n=self.top, command=self.command)
        print(render_profile(payload, top_n=min(self.top, 15)))
        if self.out:
            print(f"wrote {write_profile_json(payload, self.out)}")
        if self.folded:
            n = write_folded(payload, self.folded)
            print(f"wrote {self.folded} ({n} folded stacks)")


def _add_profile_args(parser, default_out: str) -> None:
    """The shared ``--profile`` flag family on every bench command."""
    parser.add_argument("--profile", action="store_true",
                        help="profile the bench run's wall time (cProfile; "
                             "simulated results are unchanged) and print "
                             "per-subsystem shares + top functions")
    parser.add_argument("--profile-out", nargs="?", const=default_out,
                        default=None, metavar="PATH",
                        help="write the wall-profile JSON (implies "
                             f"--profile; default {default_out})")
    parser.add_argument("--profile-folded", nargs="?",
                        const=default_out.replace(".json", ".folded"),
                        default=None, metavar="PATH",
                        help="write folded stacks for flame-graph tools "
                             "(implies --profile)")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="functions kept in the profile report "
                             "(default 25)")


def _export_trace(tracer, prefix: str, pid_base: int = 0) -> None:
    """Write one tracer's spans as JSON-lines + Chrome trace."""
    from repro.obs import write_chrome_trace, write_span_jsonl

    span_path = f"{prefix}.jsonl"
    chrome_path = f"{prefix}_chrome.json"
    n = write_span_jsonl(tracer.spans, span_path)
    write_chrome_trace(tracer.spans, chrome_path, pid_base=pid_base)
    print(f"wrote {span_path} ({n} spans) and {chrome_path}")


def _cmd_chaos_soak(args) -> int:
    from repro.harness.chaos import emit_report, render_report, run_chaos_soak

    worst = 0
    for plan in args.plans:
        box = {}
        instrument = None
        if args.trace or args.metrics_out or args.flight_recorder:
            def instrument(h, box=box):
                box["sim"] = h.sim
                if args.trace:
                    from repro.obs import install_tracer

                    install_tracer(h.sim)
                if args.flight_recorder:
                    from repro.obs import FlightRecorder

                    recorder = FlightRecorder(
                        h.sim, interval=args.flight_interval,
                        maxlen=args.flight_maxlen,
                        select=["faults/", "rpc/", "/ops", "rpcc*"],
                    )
                    recorder.install(h.cluster)
                    box["recorder"] = recorder
        report = run_chaos_soak(
            plan=plan,
            seed=args.seed,
            nodes=args.nodes,
            procs_per_node=args.procs,
            keys_per_rank=args.keys,
            kmers_per_rank=args.kmers,
            horizon=args.horizon,
            aggregation=args.aggregation,
            instrument=instrument,
            windows=args.windows,
        )
        print(render_report(report))
        suffix = plan if len(args.plans) > 1 else ""
        if args.emit:
            path = _suffixed(args.emit, suffix)
            emit_report(report, path)
            print(f"wrote {path}")
        if args.trace and "sim" in box:
            from repro.obs import tracer_of

            _export_trace(tracer_of(box["sim"]),
                          _suffixed(args.trace, suffix))
        if args.metrics_out and "sim" in box:
            from repro.obs import registry_of, write_metrics_json

            path = _suffixed(args.metrics_out, suffix)
            n = write_metrics_json(registry_of(box["sim"]), path)
            print(f"wrote {path} ({n} metrics)")
        if args.flight_recorder and "recorder" in box:
            recorder = box["recorder"]
            path = _suffixed(args.flight_recorder, suffix)
            _write_flight_json(recorder.payload(), path)
            print(f"wrote {path} ({recorder.samples} samples, "
                  f"{len(recorder.series)} series)")
        if not report["ok"]:
            worst = 1
    return worst


def _cmd_fig7(args) -> int:
    from repro.apps import (
        run_contig_generation, run_isx, run_kmer_counting, synthesize_genome,
    )

    def sc(n: int) -> int:
        return max(1, round(n * args.scale))

    apps = args.apps or ["isx", "kmer", "contig"]
    nodes_sweep = args.nodes or [2, 4, 8]
    hcl_only = args.hcl_only
    for app in apps:
        rows = []
        for nodes in nodes_sweep:
            spec = ares_like(nodes=nodes, procs_per_node=args.procs)
            b = None
            if app == "isx":
                h = run_isx("hcl", spec, keys_per_rank=sc(args.ops),
                            aggregation=args.aggregation,
                            batch_charge=args.batch_charge,
                            sim_only=args.container_sim_only)
                if not hcl_only:
                    b = run_isx("bcl", spec, keys_per_rank=sc(args.ops))
            else:
                data = synthesize_genome(
                    genome_length=sc(300 * nodes), num_reads=sc(24 * nodes),
                    read_length=60, k=15, seed=nodes,
                )
                if app == "kmer":
                    h = run_kmer_counting(
                        "hcl", spec, data, aggregation=args.aggregation,
                        batch_charge=args.batch_charge,
                        sim_only=args.container_sim_only,
                    )
                    if not hcl_only:
                        b = run_kmer_counting("bcl", spec, data)
                else:
                    # contig traverses stored values: no sim-only mode.
                    h = run_contig_generation(
                        "hcl", spec, data, aggregation=args.aggregation,
                        read_cache=bool(args.aggregation),
                        batch_charge=args.batch_charge,
                    )
                    if not hcl_only:
                        b = run_contig_generation("bcl", spec, data)
            assert h.verified, f"{app} (hcl) failed verification"
            if b is None:
                rows.append([nodes, "-", h.time_seconds, "-"])
            else:
                assert b.verified, f"{app} (bcl) failed verification"
                rows.append([nodes, b.time_seconds, h.time_seconds,
                             b.time_seconds / h.time_seconds])
        print(render_table(
            f"Fig 7 — {app} weak scaling",
            ["nodes", "bcl (s)", "hcl (s)", "speedup"], rows,
        ))
        print()
    return 0


def _cmd_sweep(args) -> int:
    """Free-form insert-throughput sweep over nodes/ops/size/provider."""
    from repro.core import HCL
    from repro.harness import Blob

    rows = []
    for nodes in args.nodes:
        spec = ares_like(nodes=nodes, procs_per_node=args.procs)
        hcl = HCL(spec, provider=args.provider)
        m = hcl.unordered_map("m", partitions=nodes,
                              initial_buckets=8 * args.procs * args.ops)

        def body(rank):
            for i in range(args.ops):
                yield from m.insert(rank, (rank, i), Blob(args.size))

        hcl.run_ranks(body)
        total = spec.total_procs * args.ops
        rows.append([nodes, spec.total_procs, hcl.now,
                     total / hcl.now,
                     total * args.size / hcl.now / MB])
    print(render_table(
        f"unordered_map insert sweep ({args.size} B ops, "
        f"provider={args.provider})",
        ["nodes", "clients", "sim time (s)", "op/s", "MB/s"], rows,
    ))
    return 0


def _cmd_microbench(args) -> int:
    from repro.harness.microbench import run_microbench

    report = run_microbench(
        ares_like(nodes=2, procs_per_node=4), provider=args.provider
    )
    print(render_table(
        f"Simulated fabric microbenchmarks (provider={args.provider}; "
        "paper calibration: OSU ~4.5 GB/s, STREAM ~65 GB/s)",
        ["metric", "value"], report.rows(),
    ))
    return 0


def _cmd_kernelbench(args) -> int:
    from repro.harness.kernelbench import (
        emit_bench_json, kernel_events_per_sec, traced_kernel_bench,
    )

    kwargs = dict(
        procs=args.procs,
        timeouts_per_proc=args.timeouts,
        pooling=not args.no_pooling,
    )
    prof = _ProfileRun(args, "kernelbench")
    with prof, prof.scope("kernelbench.run"):
        if args.trace or args.metrics_out:
            rep, tracer, registry = traced_kernel_bench(
                repeats=args.repeats, **kwargs
            )
        else:
            rep = kernel_events_per_sec(repeats=args.repeats, **kwargs)
    print(render_table(
        "DES kernel throughput (wall clock; best of "
        f"{args.repeats} runs)",
        ["metric", "value"], rep.rows(),
    ))
    # Emission is opt-in: the committed BENCH_kernel.json carries the
    # reference machine's wall numbers, and every casual run rewriting it
    # dirtied unrelated PRs.  Pass --emit to update it deliberately.
    if args.emit and not args.no_emit:
        print(f"wrote {emit_bench_json(rep, args.emit)}")
    prof.emit()
    if args.trace:
        _export_trace(tracer, args.trace)
    if args.metrics_out:
        from repro.obs import write_metrics_json

        n = write_metrics_json(registry, args.metrics_out)
        print(f"wrote {args.metrics_out} ({n} metrics)")
    return 0


def _cmd_aggbench(args) -> int:
    from repro.harness.aggbench import emit_agg_json, run_agg_bench

    collector = [] if (args.trace or args.metrics_out) else None
    prof = _ProfileRun(args, "aggbench")
    with prof, prof.scope("aggbench.run"):
        report = run_agg_bench(
            scale=args.scale,
            nodes=args.nodes,
            procs_per_node=args.procs,
            sweep=args.sweep,
            apps=args.apps,
            repeats=args.repeats,
            sim_only=args.sim_only,
            trace=bool(args.trace),
            collector=collector,
            batch_charge=args.batch_charge,
            container_sim_only=args.container_sim_only,
        )
    print(render_table(
        f"Aggregation sweep (scale={args.scale}, "
        f"{args.nodes}x{args.procs} ranks)",
        ["app", "buffer", "sim (s)", "wall (s)", "ops/s",
         "ops/flush", "hit rate"],
        report.table_rows(),
    ))
    for app, entry in sorted(report.speedups().items()):
        metric = "sim" if args.sim_only else "wall"
        print(f"  {app}: best {metric} speedup "
              f"{entry.get(f'{metric}_speedup', 0):.2f}x "
              f"(buffer={entry['aggregation']})")
    if args.emit:
        print(f"wrote {emit_agg_json(report, args.emit)}")
    prof.emit()
    if args.trace and collector:
        from repro.obs import tracer_of

        for i, (label, sim) in enumerate(collector):
            tracer = tracer_of(sim)
            if tracer is not None and len(tracer):
                # Disjoint pid ranges so one Perfetto session can hold
                # every (app, buffer-size) run side by side.
                _export_trace(tracer, f"{args.trace}_{label}",
                              pid_base=1000 * i)
    if args.metrics_out and collector:
        import json

        from repro.obs import (
            metrics_snapshot, publish_scheduler_metrics, registry_of,
        )

        combined = {}
        for label, sim in collector:
            publish_scheduler_metrics(sim)
            combined[label] = metrics_snapshot(registry_of(sim))
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out} ({len(combined)} runs)")
    if args.check:
        failures = report.check(min_speedup=args.min_speedup)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _cmd_asyncbench(args) -> int:
    from repro.harness.asyncbench import emit_async_json, run_async_bench

    collector = [] if args.metrics_out else None
    flight_sink = [] if args.flight_recorder else None
    flight = None
    if args.flight_recorder:
        flight = {"interval": args.flight_interval,
                  "maxlen": args.flight_maxlen}
    prof = _ProfileRun(args, "asyncbench")
    with prof, prof.scope("asyncbench.run"):
        report = run_async_bench(
            scale=args.scale,
            nodes=args.nodes,
            procs_per_node=args.procs,
            repeats=args.repeats,
            sim_only=args.sim_only,
            collector=collector,
            flight=flight,
            flight_sink=flight_sink,
        )
    print(render_table(
        f"Async pipeline A/B (scale={args.scale}, "
        f"{args.nodes}x{args.procs} ranks)",
        ["mode", "buffer", "windows", "sim (s)", "wall (s)",
         "qw p99 (us)", "stalls", "auto_thr", "digest"],
        report.table_rows(),
    ))
    metric = "sim" if args.sim_only else "wall"
    summary = report.summary()
    speedup = summary.get(f"async_{metric}_speedup")
    if speedup is not None:
        print(f"  async-auto over sync baseline: {speedup:.2f}x {metric}")
    ratio = summary.get("auto_vs_best_static")
    if ratio is not None:
        print(f"  auto vs best static (buffer="
              f"{summary['best_static_aggregation']}): {ratio:.2f}x")
    if args.emit:
        print(f"wrote {emit_async_json(report, args.emit)}")
    prof.emit()
    if args.metrics_out and collector:
        import json

        from repro.obs import (
            metrics_snapshot, publish_scheduler_metrics, registry_of,
        )

        combined = {}
        for label, sim in collector:
            publish_scheduler_metrics(sim)
            combined[label] = metrics_snapshot(registry_of(sim))
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out} ({len(combined)} runs)")
    if flight_sink:
        for label, payload in flight_sink:
            path = _suffixed(args.flight_recorder, label)
            _write_flight_json(payload, path)
            print(f"wrote {path} ({payload['samples']} samples, "
                  f"{len(payload['series'])} series)")
    if args.check:
        failures = report.check(min_speedup=args.min_speedup)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import validate_chrome_trace, validate_span_log

    if args.validate:
        worst = 0
        for path in args.validate:
            validator = (validate_span_log if path.endswith(".jsonl")
                         else validate_chrome_trace)
            errors = validator(path)
            if errors:
                worst = 1
                print(f"{path}: INVALID ({len(errors)} error(s))")
                for err in errors[:20]:
                    print(f"  {err}", file=sys.stderr)
            else:
                print(f"{path}: OK")
        return worst

    # Demo mode: one traced app run, stage breakdown + tiling check.
    from repro.harness.aggbench import _run_app
    from repro.obs import STAGE_NAMES, install_tracer, tracer_of

    box = {}

    def instrument(hcl):
        box["sim"] = hcl.sim
        install_tracer(hcl.sim)

    spec = ares_like(nodes=args.nodes, procs_per_node=args.procs)
    ops, sim_s, verified, _agg = _run_app(
        args.app, spec, args.scale, args.aggregation, instrument
    )
    tracer = tracer_of(box["sim"])
    rows = [[name, int(row["n"]), f"{row['total'] * 1e6:.1f}",
             f"{row['mean'] * 1e9:.0f}"]
            for name, row in sorted(tracer.stage_breakdown().items())]
    print(render_table(
        f"traced {args.app} (scale={args.scale}, "
        f"{args.nodes}x{args.procs} ranks, agg={args.aggregation})",
        ["span", "n", "total (us)", "mean (ns)"], rows,
    ))
    rpcs = [s for s in tracer.spans
            if s.name.startswith("rpc.") and s.name not in STAGE_NAMES]
    worst = max((abs(sum(c.duration for c in tracer.stage_children(r))
                     - r.duration) for r in rpcs), default=0.0)
    print(f"  {len(tracer)} spans over {len(rpcs)} rpcs; "
          f"sim time {sim_s:.6f}s, {ops} app ops, verified={verified}")
    print(f"  stage tiling: max |sum(stages) - e2e| = {worst:.3g}s")
    if args.emit:
        _export_trace(tracer, args.emit)
    return 0 if (verified and worst < 1e-9) else 1


def _cmd_telemetry(args) -> int:
    from repro.harness.telemetry import (
        TELEMETRY_APPS, check_telemetry, emit_telemetry_json, run_telemetry,
    )

    report = run_telemetry(
        scale=args.scale,
        nodes=args.nodes,
        procs_per_node=args.procs,
        samples=args.samples,
        aggregation=args.aggregation,
        apps=args.apps or TELEMETRY_APPS,
    )
    for run in report["runs"]:
        rows = [[name,
                 len(ts["values"]),
                 f"{ts['mean']:.4g}",
                 f"{ts['max']:.4g}"]
                for name, ts in sorted(run["series"].items())]
        print(render_table(
            f"Fig 4 telemetry — {run['app']} "
            f"({run['ops']} ops in {run['sim_seconds']:.6f}s sim)",
            ["series", "samples", "mean", "max"], rows,
        ))
        print()
    if args.emit:
        print(f"wrote {emit_telemetry_json(report, args.emit)}")
    if args.check:
        failures = check_telemetry(report)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _write_flight_json(payload, path: str) -> None:
    """Write one flight-recorder payload (sorted keys + newline)."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_serving(args) -> int:
    from repro.harness.serving import (
        check_serving, emit_serving_json, render_serving, run_serving,
    )

    monitors = None
    monitors_sink = None
    if args.flight_recorder:
        monitors = {"interval": args.flight_interval,
                    "maxlen": args.flight_maxlen}
        monitors_sink = []
    prof = _ProfileRun(args, "serving")
    with prof, prof.scope("serving.run"):
        report = run_serving(
            nodes=args.nodes,
            procs_per_node=args.procs,
            clients=args.clients,
            tenants=args.tenants,
            theta=args.theta,
            keys=args.keys,
            mix=tuple(args.mix),
            queue_frac=args.queue_frac,
            queue_home=args.queue_home,
            rate=args.rate,
            ops_per_client=args.ops_per_client,
            seed=args.seed,
            bounds=[None if b.lower() in ("off", "none") else int(b)
                    for b in args.bounds],
            shed_retries=args.shed_retries,
            retry_backoff=args.retry_backoff,
            rpc_batch_size=args.batch,
            monitors=monitors,
            monitors_sink=monitors_sink,
        )
    print(render_serving(report))
    prof.emit()
    if monitors_sink:
        for entry in monitors_sink:
            bound = entry["queue_bound"]
            label = "off" if bound is None else f"b{bound}"
            flight = entry["flight"]
            path = _suffixed(args.flight_recorder, label)
            _write_flight_json(flight, path)
            skew = flight["skew"]
            slo = flight["slo"]
            top = skew["top_keys"][0]["key"] if skew["top_keys"] else "-"
            print(f"wrote {path} ({flight['samples']} samples, "
                  f"{len(flight['series'])} series); skew imbalance "
                  f"{skew['imbalance']:.2f}, hot key {top}, "
                  f"{slo['alerts']} SLO alert(s)")
    cliff = report.get("cliff")
    if cliff:
        print(f"  overload cliff: p99 {cliff['p99_shedding_off'] * 1e6:.0f}us "
              f"unbounded vs {cliff['p99_shedding_on'] * 1e6:.0f}us shed "
              f"({cliff['p99_ratio']:.2f}x)")
    if args.emit:
        print(f"wrote {emit_serving_json(report, args.emit)}")
    if args.check or args.require_cliff:
        failures = check_serving(report, require_cliff=args.require_cliff,
                                 cliff_factor=args.cliff_factor)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if failures else 0
    return 0


def _cmd_obs_report(args) -> int:
    import json

    from repro.obs import (
        critpath_analyze, load_spans, validate_dashboard, write_dashboard,
    )

    if args.validate:
        errors = validate_dashboard(args.validate)
        if errors:
            print(f"{args.validate}: INVALID ({len(errors)} error(s))")
            for err in errors[:20]:
                print(f"  {err}", file=sys.stderr)
            return 1
        print(f"{args.validate}: OK")
        return 0

    if not (args.flight or args.spans or args.metrics):
        print("obs-report: need at least one of --flight/--spans/--metrics "
              "(or --validate PATH)", file=sys.stderr)
        return 2

    flight = None
    if args.flight:
        with open(args.flight, encoding="utf-8") as fh:
            flight = json.load(fh)
    compare = None
    diff = None
    if args.compare:
        if flight is None:
            print("obs-report: --compare needs --flight (run A)",
                  file=sys.stderr)
            return 2
        from repro.obs import diff_runs

        with open(args.compare, encoding="utf-8") as fh:
            compare = json.load(fh)
        diff = diff_runs(flight, compare, a_name=args.flight,
                         b_name=args.compare)
    critpath = None
    if args.spans:
        critpath = critpath_analyze(load_spans(args.spans),
                                    top_n=args.top_traces)
    metrics = None
    if args.metrics:
        with open(args.metrics, encoding="utf-8") as fh:
            metrics = json.load(fh)

    size = write_dashboard(args.out, flight=flight, critpath=critpath,
                           metrics=metrics, compare=compare, diff=diff,
                           title=args.title)
    errors = validate_dashboard(args.out)
    if errors:
        print(f"{args.out}: generated but INVALID "
              f"({len(errors)} error(s))", file=sys.stderr)
        for err in errors[:20]:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({size} bytes, valid)")

    if critpath and critpath.get("traces"):
        overall = critpath["overall"]
        rows = [[s["stage"], f"{s['total'] * 1e6:.1f}",
                 f"{100 * s['share']:.1f}%"]
                for s in overall["stages"]]
        print(render_table(
            f"Critical path — {overall['n']} traces, "
            f"{overall['e2e_total'] * 1e6:.1f}us total e2e",
            ["stage", "total (us)", "share"], rows,
        ))
        slow = critpath.get("slow")
        if slow and slow.get("n"):
            dominant = max(slow["stages"], key=lambda s: s["total"])
            print(f"  p{100 * slow['quantile']:g} tail ({slow['n']} traces "
                  f">= {slow['threshold'] * 1e6:.1f}us): dominated by "
                  f"{dominant['stage']} "
                  f"({100 * dominant['share']:.1f}% of tail e2e)")
    if flight:
        skew = flight.get("skew")
        if skew:
            print(f"  skew: imbalance {skew['imbalance']:.2f}, "
                  f"cv {skew['cv']:.2f}, "
                  f"{skew['hot_events']} hot-partition event(s)")
        slo = flight.get("slo")
        if slo:
            print(f"  slo: {slo['alerts']} alert(s) "
                  f"over {slo['ticks']} ticks")
    return 0


def _cmd_obs_diff(args) -> int:
    from repro.obs import diff_paths, load_artifact, render_diff, \
        write_diff_json

    diff = diff_paths(args.a, args.b, rel_threshold=args.threshold,
                      top=args.top)
    print(render_diff(diff, max_rows=args.max_rows))
    if args.json:
        print(f"wrote {write_diff_json(diff, args.json)}")
    if args.md:
        with open(args.md, "w", encoding="utf-8") as fh:
            fh.write(render_diff(diff, max_rows=args.max_rows))
        print(f"wrote {args.md}")
    if args.html:
        from repro.obs import validate_dashboard, write_dashboard

        kind_a, doc_a = load_artifact(args.a)
        kind_b, doc_b = load_artifact(args.b)
        flight = doc_a if kind_a == "flight" else None
        compare = doc_b if (flight is not None and kind_b == "flight") \
            else None
        size = write_dashboard(
            args.html, flight=flight, compare=compare, diff=diff,
            title=f"A/B: {args.a} vs {args.b}",
        )
        errors = validate_dashboard(args.html)
        if errors:
            print(f"{args.html}: generated but INVALID "
                  f"({len(errors)} error(s))", file=sys.stderr)
            for err in errors[:20]:
                print(f"  {err}", file=sys.stderr)
            return 1
        print(f"wrote {args.html} ({size} bytes, valid)")
    if args.fail_on_significant and diff["significant"]:
        print("obs-diff: significant differences found "
              f"({diff['fingerprint']['label']})", file=sys.stderr)
        return 1
    return 0


def _cmd_list(args) -> int:
    print("commands: fig1 fig5 fig6 fig7 sweep microbench kernelbench "
          "aggbench asyncbench chaos-soak trace telemetry serving "
          "obs-report obs-diff list")
    print("full asserted reproduction: pytest benchmarks/ --benchmark-only -s")
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="HCL reproduction experiments (CLUSTER 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list commands").set_defaults(fn=_cmd_list)
    sub.add_parser("fig1", help="motivating test").set_defaults(fn=_cmd_fig1)

    p5 = sub.add_parser("fig5", help="hybrid access bandwidth sweep")
    p5.add_argument("--sizes", nargs="+", type=int, default=None)
    p5.set_defaults(fn=_cmd_fig5)

    p6 = sub.add_parser("fig6", help="container scaling")
    p6.add_argument("--partitions", nargs="+", type=int, default=None)
    p6.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (ops per rank; default 1.0)")
    p6.add_argument("--emit", nargs="?", const="BENCH_fig6.json",
                    default=None, metavar="PATH",
                    help="write the series as JSON (default BENCH_fig6.json)")
    p6.set_defaults(fn=_cmd_fig6)

    from repro.fabric.faults import PLAN_NAMES

    pc = sub.add_parser(
        "chaos-soak",
        help="fault-injection soak: paper workloads under a chaos plan, "
             "asserting no acked write is lost",
    )
    pc.add_argument("--plans", nargs="+", choices=list(PLAN_NAMES),
                    default=["mixed"], help="fault plans to run")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--nodes", type=int, default=3)
    pc.add_argument("--procs", type=int, default=2,
                    help="rank processes per node")
    pc.add_argument("--keys", type=int, default=24,
                    help="ISx-style inserts per rank")
    pc.add_argument("--kmers", type=int, default=16,
                    help="k-mer upserts per rank")
    pc.add_argument("--horizon", type=_positive_float, default=2e-3,
                    help="sim-time horizon the fault windows scale to (s)")
    pc.add_argument("--aggregation", type=int, default=0,
                    help="run upserts through N-op write-combining buffers "
                         "and the read cache, asserting never-stale reads")
    pc.add_argument("--emit", nargs="?", const="chaos_soak.json",
                    default=None, metavar="PATH",
                    help="write report JSON (per-plan suffix when multiple)")
    pc.add_argument("--trace", nargs="?", const="chaos_trace",
                    default=None, metavar="PREFIX",
                    help="trace every RPC; write PREFIX.jsonl + "
                         "PREFIX_chrome.json (per-plan suffix when multiple)")
    pc.add_argument("--metrics-out", nargs="?", const="chaos_metrics.json",
                    default=None, metavar="PATH",
                    help="write the full metrics-registry snapshot as JSON")
    pc.add_argument("--windows", action="store_true",
                    help="arm per-(node, partition) AIMD congestion windows "
                         "on every client; the report asserts they shrink "
                         "under faults without losing acked writes")
    pc.add_argument("--flight-recorder", nargs="?",
                    const="chaos_flight.json", default=None, metavar="PATH",
                    help="record faults/rpc/partition-op series at a fixed "
                         "cadence (per-plan suffix when multiple plans)")
    pc.add_argument("--flight-interval", type=_positive_float, default=1e-4,
                    help="flight-recorder cadence in sim seconds")
    pc.add_argument("--flight-maxlen", type=int, default=512,
                    help="ring-buffer bound per recorded series")
    pc.set_defaults(fn=_cmd_chaos_soak)

    p7 = sub.add_parser("fig7", help="application kernels")
    p7.add_argument("--apps", nargs="+",
                    choices=["isx", "kmer", "contig"], default=None)
    p7.add_argument("--nodes", nargs="+", type=int, default=None)
    p7.add_argument("--procs", type=int, default=3)
    p7.add_argument("--ops", type=int, default=48,
                    help="ISx keys per rank")
    p7.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (keys/reads; default 1.0)")
    p7.add_argument("--aggregation", type=int, default=0,
                    help="HCL write-combining buffer size (0 = off)")
    p7.add_argument("--hcl-only", action="store_true",
                    help="skip the BCL comparison runs (full-paper-scale "
                         "sweeps where the client-driven baseline is "
                         "prohibitive)")
    p7.add_argument("--batch-charge", action="store_true",
                    help="fused charging of uncontended coalescer flushes")
    p7.add_argument("--container-sim-only", action="store_true",
                    help="container timing-only mode for isx/kmer")
    p7.set_defaults(fn=_cmd_fig7)

    pk = sub.add_parser("kernelbench",
                        help="DES kernel event-throughput microbenchmark")
    pk.add_argument("--procs", type=int, default=100)
    pk.add_argument("--timeouts", type=int, default=2000,
                    help="timeouts per process")
    pk.add_argument("--repeats", type=int, default=3,
                    help="take the best of N runs")
    pk.add_argument("--no-pooling", action="store_true",
                    help="disable the event free-list pool")
    pk.add_argument("--emit", nargs="?", const="BENCH_kernel.json",
                    default=None, metavar="PATH",
                    help="write the reported run as JSON (default "
                         "BENCH_kernel.json).  Opt-in: wall throughput is "
                         "machine-specific, so the committed baseline only "
                         "changes when asked to")
    pk.add_argument("--no-emit", action="store_true",
                    help="(deprecated no-op: emission is opt-in via --emit)")
    pk.add_argument("--trace", nargs="?", const="kernel_trace",
                    default=None, metavar="PREFIX",
                    help="record wall-clock spans per repeat; write "
                         "PREFIX.jsonl + PREFIX_chrome.json")
    pk.add_argument("--metrics-out", nargs="?", const="kernel_metrics.json",
                    default=None, metavar="PATH",
                    help="write the kernel-stat registry snapshot as JSON")
    _add_profile_args(pk, "kernel_profile.json")
    pk.set_defaults(fn=_cmd_kernelbench)

    pa = sub.add_parser(
        "aggbench",
        help="A/B the op-coalescing buffers over the Fig-7 apps",
    )
    pa.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (genome/keys; default 1.0)")
    pa.add_argument("--nodes", type=int, default=4)
    pa.add_argument("--procs", type=int, default=3,
                    help="rank processes per node")
    pa.add_argument("--sweep", nargs="+", type=int, default=[0, 8, 64, 512],
                    help="aggregation buffer sizes (0 = off baseline)")
    pa.add_argument("--apps", nargs="+",
                    choices=["kmer", "contig", "isx"],
                    default=["kmer", "contig", "isx"])
    pa.add_argument("--repeats", type=int, default=2,
                    help="wall time takes the best of N runs")
    pa.add_argument("--sim-only", action="store_true",
                    help="omit wall-clock fields (deterministic JSON)")
    pa.add_argument("--batch-charge", action="store_true",
                    help="fused closed-form charging of uncontended "
                         "coalescer flushes (results still verified)")
    pa.add_argument("--container-sim-only", action="store_true",
                    help="container timing-only mode for isx/kmer: stubbed "
                         "payloads + cheap invariant verification; sim "
                         "times are bit-identical to full-data runs")
    pa.add_argument("--emit", nargs="?", const="BENCH_agg.json",
                    default=None, metavar="PATH",
                    help="write the sweep as JSON (default BENCH_agg.json)")
    pa.add_argument("--check", action="store_true",
                    help="exit 1 unless contig+kmer clear --min-speedup")
    pa.add_argument("--min-speedup", type=_positive_float, default=1.0,
                    help="speedup floor for --check (default 1.0)")
    pa.add_argument("--trace", nargs="?", const="agg_trace",
                    default=None, metavar="PREFIX",
                    help="trace one run per (app, buffer) combo; write "
                         "PREFIX_<label>.jsonl + PREFIX_<label>_chrome.json")
    pa.add_argument("--metrics-out", nargs="?", const="agg_metrics.json",
                    default=None, metavar="PATH",
                    help="write per-run metrics-registry snapshots as JSON")
    _add_profile_args(pa, "agg_profile.json")
    pa.set_defaults(fn=_cmd_aggbench)

    pb = sub.add_parser(
        "asyncbench",
        help="A/B the pipelined async-futures client (AIMD windows + "
             "self-tuning coalescer) against the aggregated sync path",
    )
    pb.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (genome/reads; default 1.0)")
    pb.add_argument("--nodes", type=int, default=4)
    pb.add_argument("--procs", type=int, default=3,
                    help="rank processes per node")
    pb.add_argument("--repeats", type=int, default=3,
                    help="wall time takes the best of N runs")
    pb.add_argument("--sim-only", action="store_true",
                    help="omit wall-clock fields (deterministic JSON)")
    pb.add_argument("--emit", nargs="?", const="BENCH_async.json",
                    default=None, metavar="PATH",
                    help="write rows + summary as JSON "
                         "(default BENCH_async.json)")
    pb.add_argument("--metrics-out", nargs="?", const="async_metrics.json",
                    default=None, metavar="PATH",
                    help="write per-run metrics snapshots (rpc/cwnd/*, "
                         "rpc/window_stalls, coalesce/auto_threshold)")
    pb.add_argument("--flight-recorder", nargs="?",
                    const="async_flight.json", default=None, metavar="PATH",
                    help="record rpc/coalesce/partition-op series on each "
                         "row's first repeat (per-row label suffix)")
    pb.add_argument("--flight-interval", type=_positive_float, default=1e-5,
                    help="flight-recorder cadence in sim seconds")
    pb.add_argument("--flight-maxlen", type=int, default=512,
                    help="ring-buffer bound per recorded series")
    pb.add_argument("--check", action="store_true",
                    help="exit 1 unless async-auto clears --min-speedup "
                         "with identical digests and matches the best "
                         "static threshold within 10%")
    pb.add_argument("--min-speedup", type=_positive_float, default=1.5,
                    help="wall-speedup floor for --check (default 1.5)")
    _add_profile_args(pb, "async_profile.json")
    pb.set_defaults(fn=_cmd_asyncbench)

    pt = sub.add_parser(
        "trace",
        help="span tracing: validate exported traces, or run a traced demo",
    )
    pt.add_argument("--validate", nargs="+", default=None, metavar="PATH",
                    help="validate span logs (.jsonl) / Chrome traces "
                         "(.json) instead of running a demo")
    pt.add_argument("--app", choices=["isx", "kmer", "contig"],
                    default="isx", help="demo app to trace")
    pt.add_argument("--scale", type=_positive_float, default=0.25,
                    help="work multiplier for the demo run")
    pt.add_argument("--nodes", type=int, default=2)
    pt.add_argument("--procs", type=int, default=2,
                    help="rank processes per node")
    pt.add_argument("--aggregation", type=int, default=0,
                    help="buffer size for the demo (adds coalesce spans)")
    pt.add_argument("--emit", nargs="?", const="trace_demo",
                    default=None, metavar="PREFIX",
                    help="write the demo's PREFIX.jsonl + PREFIX_chrome.json")
    pt.set_defaults(fn=_cmd_trace)

    pT = sub.add_parser(
        "telemetry",
        help="Fig-4-style time series: NIC %%, memory %%, packet rate",
    )
    pT.add_argument("--scale", type=_positive_float, default=1.0,
                    help="work multiplier (keys/reads; default 1.0)")
    pT.add_argument("--nodes", type=int, default=4)
    pT.add_argument("--procs", type=int, default=3,
                    help="rank processes per node")
    pT.add_argument("--samples", type=int, default=32,
                    help="sample points across the run (default 32)")
    pT.add_argument("--aggregation", type=int, default=8,
                    help="write-combining buffer size (0 = off)")
    pT.add_argument("--apps", nargs="+",
                    choices=["isx", "kmer", "contig"], default=None,
                    help="apps to sample (default: isx contig)")
    pT.add_argument("--emit", nargs="?", const="BENCH_telemetry.json",
                    default=None, metavar="PATH",
                    help="write the series (default BENCH_telemetry.json)")
    pT.add_argument("--check", action="store_true",
                    help="exit 1 if any series is empty or a probe failed")
    pT.set_defaults(fn=_cmd_telemetry)

    pS = sub.add_parser(
        "serving",
        help="Zipfian serving bench: SLO percentiles + backpressure A/B",
    )
    pS.add_argument("--nodes", type=int, default=64)
    pS.add_argument("--procs", type=int, default=4,
                    help="rank processes per node")
    pS.add_argument("--clients", type=int, default=100_000,
                    help="simulated open-loop clients (Poisson superposed)")
    pS.add_argument("--tenants", type=int, default=8)
    pS.add_argument("--theta", type=float, default=0.99,
                    help="Zipf skew (0 = uniform)")
    pS.add_argument("--keys", type=int, default=16_384,
                    help="keys per tenant namespace")
    pS.add_argument("--mix", nargs=3, type=float, default=[0.70, 0.20, 0.10],
                    metavar=("READ", "WRITE", "RMW"),
                    help="map-op mix fractions (must sum to 1)")
    pS.add_argument("--queue-frac", type=float, default=0.10,
                    help="fraction of ops hitting the tenant FIFO queues")
    pS.add_argument("--queue-home", choices=["packed", "spread"],
                    default="packed",
                    help="tenant-queue placement: packed = all on node 0 "
                         "(the serving hotspot), spread = round-robin")
    pS.add_argument("--rate", type=float, default=100.0,
                    help="per-client Poisson arrival rate (ops/s)")
    pS.add_argument("--ops-per-client", type=float, default=1.0)
    pS.add_argument("--seed", type=int, default=7)
    pS.add_argument("--bounds", nargs="+", default=["off", "64"],
                    metavar="BOUND",
                    help="admission-control settings to A/B ('off' = "
                         "unbounded; integers arm load shedding)")
    pS.add_argument("--shed-retries", type=int, default=1,
                    help="client retries per shed op (0 = surface the error)")
    pS.add_argument("--retry-backoff", type=_positive_float, default=1e-3,
                    help="base retry backoff in sim seconds (doubles per "
                         "attempt)")
    pS.add_argument("--batch", type=int, default=1,
                    help="server request-aggregation batch size")
    pS.add_argument("--emit", nargs="?", const="BENCH_serving.json",
                    default=None, metavar="PATH",
                    help="write the report (default BENCH_serving.json)")
    pS.add_argument("--flight-recorder", nargs="?",
                    const="serving_flight.json", default=None, metavar="PATH",
                    help="arm the flight recorder + skew/SLO monitors; "
                         "writes one JSON per bound (PATH_off / PATH_b<N>). "
                         "Simulated results are unchanged")
    pS.add_argument("--flight-interval", type=_positive_float, default=2.5e-4,
                    help="flight-recorder cadence in sim seconds")
    pS.add_argument("--flight-maxlen", type=int, default=512,
                    help="ring-buffer bound per recorded series")
    pS.add_argument("--check", action="store_true",
                    help="exit 1 on sanity failures (accounting, SLO keys, "
                         "fairness, starved tenants)")
    pS.add_argument("--require-cliff", action="store_true",
                    help="also fail unless unbounded p99 >= cliff-factor x "
                         "the bounded p99")
    pS.add_argument("--cliff-factor", type=_positive_float, default=3.0)
    _add_profile_args(pS, "serving_profile.json")
    pS.set_defaults(fn=_cmd_serving)

    pO = sub.add_parser(
        "obs-report",
        help="render a self-contained HTML dashboard from flight-recorder "
             "JSON, span JSONL, and/or metrics snapshots",
    )
    pO.add_argument("--flight", default=None, metavar="PATH",
                    help="flight-recorder JSON (serving --flight-recorder "
                         "output; includes skew + SLO sections)")
    pO.add_argument("--spans", default=None, metavar="PATH",
                    help="span JSONL (trace --export output) for the "
                         "critical-path analysis")
    pO.add_argument("--metrics", default=None, metavar="PATH",
                    help="metrics snapshot JSON (--metrics-out output)")
    pO.add_argument("-o", "--out", default="obs_report.html", metavar="PATH",
                    help="dashboard output path (default obs_report.html)")
    pO.add_argument("--title", default="Observability report")
    pO.add_argument("--top-traces", type=int, default=5,
                    help="slowest traces listed in the critical-path table")
    pO.add_argument("--compare", default=None, metavar="PATH",
                    help="second flight-recorder JSON: render the A/B "
                         "comparison dashboard (overlaid sparklines + "
                         "delta tables; --flight is run A)")
    pO.add_argument("--validate", default=None, metavar="PATH",
                    help="validate an existing dashboard instead of "
                         "rendering one (CI mode)")
    pO.set_defaults(fn=_cmd_obs_report)

    pD = sub.add_parser(
        "obs-diff",
        help="differential run forensics: diff two runs (BENCH JSON, "
             "flight JSON, span JSONL, metrics, profiles) and fingerprint "
             "the dominant cause",
    )
    pD.add_argument("a", metavar="A", help="reference run (baseline)")
    pD.add_argument("b", metavar="B", help="candidate run (fresh)")
    pD.add_argument("--threshold", type=_positive_float, default=0.10,
                    help="relative-change significance threshold "
                         "(default 0.10; wall-clock metrics use at least "
                         "0.50)")
    pD.add_argument("--top", type=int, default=40,
                    help="rows kept per delta section (default 40)")
    pD.add_argument("--max-rows", type=int, default=20,
                    help="rows printed per section in the report")
    pD.add_argument("--json", nargs="?", const="run_diff.json",
                    default=None, metavar="PATH",
                    help="write the structured RunDiff as JSON")
    pD.add_argument("--md", nargs="?", const="run_diff.md",
                    default=None, metavar="PATH",
                    help="write the markdown forensics report")
    pD.add_argument("--html", nargs="?", const="run_diff.html",
                    default=None, metavar="PATH",
                    help="render the A/B dashboard (overlaid sparklines "
                         "when both runs are flight recordings)")
    pD.add_argument("--fail-on-significant", action="store_true",
                    help="exit 1 when significant differences are found "
                         "(CI self-diff mode)")
    pD.set_defaults(fn=_cmd_obs_diff)

    pm = sub.add_parser("microbench", help="OSU-style fabric microbenchmarks")
    pm.add_argument("--provider", default="roce",
                    choices=["roce", "verbs", "tcp"])
    pm.set_defaults(fn=_cmd_microbench)

    ps = sub.add_parser("sweep", help="free-form throughput sweep")
    ps.add_argument("--nodes", nargs="+", type=int, default=[2, 4, 8])
    ps.add_argument("--procs", type=int, default=6)
    ps.add_argument("--ops", type=int, default=32)
    ps.add_argument("--size", type=int, default=4 * KB)
    ps.add_argument("--provider", default="roce",
                    choices=["roce", "verbs", "tcp"])
    ps.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
