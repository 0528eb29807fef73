"""Command-line entry point for regenerating the paper's artifacts.

Usage::

    python -m repro.harness.cli fig2
    python -m repro.harness.cli fig6 fig7 --csv out/
    python -m repro.harness.cli all
    python -m repro.harness.cli run --runtime native --system pgBat
                                                      # wall-clock run on
                                                      # real OS threads
    python -m repro.harness.cli trace                 # observed run
    python -m repro.harness.cli trace --system pg2Q --out out/
    python -m repro.harness.cli analyze               # 2x2 sweep ->
                                                      # out/dashboard.html
    python -m repro.harness.cli serve                 # sharded serving
                                                      # sweep -> serve.json
                                                      # + contention heatmap
    python -m repro.harness.cli serve --shards 2 4 --tenants 4 8 \
                                      --skews 0.2 0.8
    python -m repro.harness.cli macro                 # query-execution
                                                      # tier -> macro.json
                                                      # + per-operator table
    python -m repro.harness.cli tune                  # control-plane
                                                      # sweep -> tune.json
                                                      # + Fig. 8 heatmap
    python -m repro.harness.cli tune --thresholds 1 8 32 --queues 64
    python -m repro.harness.cli perf-diff             # gate vs baseline
    python -m repro.harness.cli perf-diff --mode record
    python -m repro.harness.cli check                 # correctness gate
    python -m repro.harness.cli check --fuzz 25 --policies 2q lirs

Each artifact prints as an aligned ASCII table; ``--csv DIR`` also
writes one CSV per artifact into ``DIR``. The ``trace`` subcommand
runs one experiment with the observability layer attached and writes
a Chrome/Perfetto-loadable ``trace.json`` plus a flame summary of the
top lock-holding span kinds. ``analyze`` runs an observed sweep grid
through the contention analyzer and writes a self-contained HTML
dashboard plus the derived tables; ``perf-diff`` measures the perf
gate metrics and compares them against ``BENCH_baseline.json``,
exiting non-zero on regression (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict

from repro.harness import figures, tables
from repro.harness.report import render_table, rows_to_csv

__all__ = ["analyze_main", "check_main", "macro_main", "main",
           "perf_diff_main", "run_main", "serve_main", "trace_main",
           "tune_main"]

_ARTIFACTS: Dict[str, Callable[[], object]] = {
    "fig2": figures.fig2,
    "fig6": figures.fig6,
    "fig7": figures.fig7,
    "fig8": figures.fig8,
    "table1": tables.table1,
    "table2": tables.table2,
    "table3": tables.table3,
}


def _write_json(path, doc) -> pathlib.Path:
    """Write one record as deterministic JSON, creating its directory."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def trace_main(argv=None) -> int:
    """The ``trace`` subcommand: one observed run, exported artifacts."""
    from repro.harness.experiment import ExperimentConfig, run_experiment
    from repro.harness.sweeps import default_workload_kwargs
    from repro.obs import MetricsRegistry, Observer, TraceRecorder

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli trace",
        description="Run one experiment with event tracing on; write a "
                    "Chrome/Perfetto trace.json, a metrics snapshot and "
                    "a flame summary of the top lock-holding spans.")
    parser.add_argument("--system", default="pgBatPre",
                        help="system to run (default pgBatPre)")
    parser.add_argument("--workload", default="dbt1",
                        help="workload name (default dbt1)")
    parser.add_argument("--processors", type=int, default=16)
    parser.add_argument("--accesses", type=int, default=12_000,
                        help="page-access target (default 12000 — small "
                             "enough for an unbounded trace)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--ring", type=int, default=0, metavar="N",
                        help="keep only the newest N trace records "
                             "(0 = unbounded; use for long runs)")
    parser.add_argument("--top", type=int, default=15,
                        help="span kinds shown in the flame summary")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default out/)")
    args = parser.parse_args(argv)

    recorder = TraceRecorder(ring_capacity=args.ring or None)
    observer = Observer(trace=recorder, metrics=MetricsRegistry())
    config = ExperimentConfig(
        system=args.system, workload=args.workload,
        workload_kwargs=default_workload_kwargs(args.workload),
        n_processors=args.processors, target_accesses=args.accesses,
        seed=args.seed)
    started = time.time()
    result = run_experiment(config, observer=observer)
    elapsed = time.time() - started

    out_dir = pathlib.Path(args.out)
    metrics_path = _write_json(out_dir / "trace_metrics.json",
                               result.metrics)
    trace_path = recorder.write_json(out_dir / "trace.json")
    flame = recorder.flame_summary(top=args.top)
    (out_dir / "trace_summary.txt").write_text(flame + "\n")

    print(result.summary())
    print(f"[{len(recorder)} trace records from {result.total_accesses} "
          f"accesses in {elapsed:.1f}s]")
    if recorder.dropped:
        print(f"WARNING: trace ring buffer overflowed — "
              f"{recorder.dropped} records dropped (oldest first); the "
              f"timeline has gaps. Raise --ring or lower --accesses. "
              f"(Recorded as trace.dropped_records in the metrics "
              f"snapshot.)", file=sys.stderr)
    print(f"[wrote {trace_path} — open at https://ui.perfetto.dev or "
          f"chrome://tracing]")
    print(f"[wrote {metrics_path}]\n")
    print(flame)
    return 0


def run_main(argv=None) -> int:
    """The ``run`` subcommand: one experiment on either runtime."""
    from repro.harness.experiment import ExperimentConfig, run_experiment
    from repro.harness.sweeps import default_workload_kwargs
    from repro.obs import MetricsRegistry, Observer

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli run",
        description="Run one experiment configuration and print its "
                    "measurements. --runtime sim (default) uses the "
                    "deterministic discrete-event simulator; --runtime "
                    "native runs the identical BP-Wrapper core on real "
                    "OS threads and reports wall-clock lock contention "
                    "(a micro-benchmark of this host, not a "
                    "reproduction of the paper's machine); --runtime "
                    "mp runs worker processes over shared-memory frame "
                    "tables for true multi-core scaling.")
    parser.add_argument("--runtime", choices=("sim", "native", "mp"),
                        default="sim",
                        help="execution backend (default sim)")
    parser.add_argument("--system", default="pgBat",
                        help="system to run (default pgBat)")
    parser.add_argument("--workload", default="tablescan",
                        help="workload name (default tablescan)")
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--threads", type=int, default=None,
                        help="back-end threads (default 2x processors)")
    parser.add_argument("--accesses", type=int, default=40_000,
                        help="page-access target (default 40000)")
    parser.add_argument("--queue", type=int, default=64,
                        help="BP-Wrapper queue size (default 64)")
    parser.add_argument("--threshold", type=int, default=32,
                        help="batch threshold (default 32)")
    parser.add_argument("--controller", default=None,
                        help="attach a control-plane controller "
                             "(e.g. threshold) that retunes the batch "
                             "threshold online; sim and native only")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--no-metrics", action="store_true",
                        help="run without the observability layer")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the full RunResult record as "
                             "JSON")
    args = parser.parse_args(argv)

    # A metrics-only observer works on every backend — the mp runtime
    # merges per-worker registry snapshot files into it after the join.
    observer = (None if args.no_metrics
                else Observer(metrics=MetricsRegistry()))
    config = ExperimentConfig(
        system=args.system, workload=args.workload,
        workload_kwargs=default_workload_kwargs(args.workload),
        n_processors=args.processors, n_threads=args.threads,
        target_accesses=args.accesses, queue_size=args.queue,
        batch_threshold=args.threshold, controller=args.controller,
        seed=args.seed, runtime=args.runtime)
    started = time.time()
    result = run_experiment(config, observer=observer)
    elapsed = time.time() - started

    unit = ("simulated" if args.runtime == "sim" else "wall-clock")
    print(result.summary())
    if args.runtime == "mp":
        # What ran, in runtime/mp.py's own words: its policy core is
        # fixed, whatever the system's Table-I row configures.
        from repro.harness.systems import system_spec
        print("[mp policy core: " + (
            "reference-bit CLOCK sweep" if args.system == "pgclock" else
            "intrusive doubly-linked LRU list (move-to-front on hit) under "
            f"the {args.system} lock discipline, not the configured "
            f"{system_spec(args.system).policy_name}") + "]")
    if result.controller is not None:
        print(render_table(
            ["stat", "value"],
            sorted(result.controller.items()),
            title=f"Controller — {args.controller}"))
    stats = result.lock_stats
    print(render_table(
        ["stat", "value"],
        [["requests", stats.requests],
         ["acquisitions", stats.acquisitions],
         ["contentions", stats.contentions],
         ["contention rate", f"{stats.contention_rate:.4f}"],
         ["try attempts", stats.try_attempts],
         ["try failures", stats.try_failures],
         [f"total wait ({unit} us)", f"{stats.total_wait_us:.1f}"],
         [f"total hold ({unit} us)", f"{stats.total_hold_us:.1f}"],
         [f"max hold ({unit} us)", f"{stats.max_hold_us:.1f}"]],
        title=f"Replacement lock — {args.runtime} runtime"))
    print(f"[{result.total_accesses} accesses "
          f"({result.elapsed_us / 1e6:.3f}s {unit}) "
          f"in {elapsed:.1f}s wall]")
    if args.json:
        _write_json(args.json, result.to_dict())
        print(f"[wrote {args.json}]")
    return 0


def serve_main(argv=None) -> int:
    """The ``serve`` subcommand: sharded multi-tenant serving sweep."""
    from repro.harness.dashboard import (render_serve_page,
                                         render_telemetry_page)
    from repro.obs import (MetricsRegistry, Observer, TraceRecorder,
                           merge_snapshots, write_openmetrics)
    from repro.serve import ServeConfig, serve_grid

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli serve",
        description="Run the sharded multi-tenant serving layer over a "
                    "shards x tenants x skew grid: hash-partitioned "
                    "buffer-pool shards, each behind its own BP-Wrapper "
                    "queues, fed by simulated client sessions with "
                    "token-bucket admission and queue-depth "
                    "backpressure. Writes a deterministic serve.json "
                    "record (byte-identical across same-seed sim runs) "
                    "and a per-shard contention heatmap dashboard.")
    parser.add_argument("--shards", nargs="+", type=int, default=[4],
                        help="shard counts to sweep (default 4)")
    parser.add_argument("--tenants", nargs="+", type=int, default=[8],
                        help="tenant counts to sweep (default 8)")
    parser.add_argument("--skews", nargs="+", type=float, default=[0.8],
                        help="per-tenant zipf thetas (default 0.8)")
    parser.add_argument("--system", default="pgBat",
                        help="wrapper each shard runs (default pgBat)")
    parser.add_argument("--runtime", choices=("sim", "native"),
                        default="sim",
                        help="execution backend (default sim)")
    parser.add_argument("--sessions", type=int, default=2,
                        help="client sessions per tenant (default 2)")
    parser.add_argument("--pages", type=int, default=128,
                        help="private pages per tenant (default 128)")
    parser.add_argument("--hot-pages", type=int, default=16,
                        help="shared hot-set size (default 16)")
    parser.add_argument("--hot-fraction", type=float, default=0.1,
                        help="probability an access hits the shared "
                             "hot set (default 0.1)")
    parser.add_argument("--quota", type=float, default=None,
                        metavar="REQ_PER_SEC",
                        help="per-tenant token-bucket quota in requests "
                             "per simulated second (default unlimited)")
    parser.add_argument("--depth", type=int, default=32,
                        help="per-shard queue-depth limit (default 32)")
    parser.add_argument("--requests", type=int, default=2_000,
                        help="request target per cell (default 2000)")
    parser.add_argument("--queue", type=int, default=16,
                        help="BP-Wrapper queue size (default 16)")
    parser.add_argument("--threshold", type=int, default=8,
                        help="batch threshold (default 8)")
    parser.add_argument("--controller", default=None,
                        help="attach a control-plane controller (e.g. "
                             "threshold) to every shard, one instance "
                             "per shard")
    parser.add_argument("--processors", type=int, default=8)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--check", action="store_true",
                        help="attach the correctness checker to every "
                             "cell (sim runtime only)")
    parser.add_argument("--no-metrics", action="store_true",
                        help="run without the observability layer "
                             "(drops the metrics block from serve.json)")
    parser.add_argument("--telemetry", default=None, metavar="PROM",
                        help="enable windowed telemetry sampling and "
                             "write the merged registry snapshot as "
                             "OpenMetrics text here (plus "
                             "timeseries.json + telemetry dashboard in "
                             "--out); byte-deterministic per seed on "
                             "the sim runtime")
    parser.add_argument("--telemetry-interval", type=float,
                        default=5_000.0, metavar="US",
                        help="telemetry sampling cadence in simulated "
                             "microseconds (default 5000)")
    parser.add_argument("--slo-p99-ms", type=float, default=2.0,
                        metavar="MS",
                        help="per-tenant latency SLO: 1 - error budget "
                             "of requests must finish within this many "
                             "ms (default 2.0)")
    parser.add_argument("--slo-error-budget", type=float, default=0.01,
                        metavar="FRAC",
                        help="latency SLO error budget (default 0.01)")
    parser.add_argument("--slo-throttle-rate", type=float, default=0.10,
                        metavar="FRAC",
                        help="max throttled fraction of admitted "
                             "requests (default 0.10)")
    parser.add_argument("--trace", action="store_true",
                        help="record the first cell's request-scoped "
                             "trace (admission -> shard -> lock-wait -> "
                             "disk spans linked by request id) to "
                             "out/trace.json")
    parser.add_argument("--disk", action="store_true",
                        help="attach a simulated disk array per shard "
                             "(misses pay real disk reads; sim only)")
    parser.add_argument("--capacity", type=int, default=None,
                        metavar="PAGES",
                        help="per-shard buffer capacity in pages "
                             "(default: sized to the routed working "
                             "set, i.e. miss-free; set lower to force "
                             "evictions and, with --disk, real disk "
                             "reads)")
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default out/)")
    args = parser.parse_args(argv)

    if (args.telemetry or args.trace) and args.no_metrics:
        print("error: --telemetry/--trace need the observability layer; "
              "drop --no-metrics", file=sys.stderr)
        return 2

    base = ServeConfig(
        system=args.system, runtime=args.runtime,
        sessions_per_tenant=args.sessions,
        pages_per_tenant=args.pages, hot_pages=args.hot_pages,
        hot_fraction=args.hot_fraction, quota_per_sec=args.quota,
        max_queue_depth=args.depth, target_requests=args.requests,
        queue_size=args.queue, batch_threshold=args.threshold,
        controller=args.controller,
        n_processors=args.processors, seed=args.seed,
        telemetry_interval_us=(args.telemetry_interval
                               if args.telemetry else 0.0),
        slo_p99_ms=args.slo_p99_ms,
        slo_error_budget=args.slo_error_budget,
        slo_throttle_rate=args.slo_throttle_rate,
        use_disk=args.disk, shard_buffer_pages=args.capacity)

    recorders = []

    def observer_factory():
        trace = None
        if args.trace and not recorders:
            # One trace is plenty: record the sweep's first cell.
            trace = TraceRecorder()
            recorders.append(trace)
        return Observer(trace=trace, metrics=MetricsRegistry())

    if args.no_metrics:
        observer_factory = None
    checker_factory = None
    if args.check:
        from repro.check.checker import CorrectnessChecker
        checker_factory = CorrectnessChecker

    results = []
    clock = {"mark": time.time()}

    def progress(result) -> None:
        now = time.time()
        cell_wall = now - clock["mark"]
        clock["mark"] = now
        results.append(result)
        print(f"  {result.summary()}  [{cell_wall:.1f}s wall]")

    started = time.time()
    record = serve_grid(base, args.shards, args.tenants, args.skews,
                        observer_factory=observer_factory,
                        checker_factory=checker_factory,
                        progress=progress)
    elapsed = time.time() - started

    out_dir = pathlib.Path(args.out)
    record_path = _write_json(out_dir / "serve.json", record)
    dashboard_path = out_dir / "serve_dashboard.html"
    dashboard_path.write_text(render_serve_page(record))

    cells = record["cells"]
    print(render_table(
        ["cell", "requests", "req/s", "cont/M", "hit ratio",
         "throttled", "backpressured"],
        [[f'{c["n_shards"]}s×{c["n_tenants"]}t@θ{c["skew"]:g}',
          c["requests"], f'{c["requests_per_sec"]:.1f}',
          f'{c["contention_per_million"]:.1f}',
          f'{c["hit_ratio"]:.4f}',
          sum(t["throttled"] for t in c["tenants"]),
          sum(s["backpressure_events"] for s in c["shards"])]
         for c in cells],
        title=f"Serve grid — {args.runtime} runtime"))

    slo_rows = []
    for result in results:
        cell = (f"{result.config.n_shards}s×"
                f"{result.config.n_tenants}t@θ{result.config.skew:g}")
        for rec in result.slo_records:
            slo_rows.append(
                [cell, rec["tenant"], f'{rec["achieved_p99_ms"]:.3f}',
                 f'{rec["latency_burn_rate"]:.2f}',
                 f'{rec["throttle_burn_rate"]:.2f}',
                 "ok" if rec["ok"] else "VIOLATED"])
    if slo_rows:
        print(render_table(
            ["cell", "tenant", "p99 ms", "latency burn",
             "throttle burn", "slo"],
            slo_rows,
            title=f"Per-tenant SLOs — p99 ≤ {args.slo_p99_ms:g} ms, "
                  f"budget {args.slo_error_budget:g}"))
    print(f"[{len(cells)} cells in {elapsed:.1f}s wall]")
    print(f"[wrote {record_path}]")
    print(f"[wrote {dashboard_path} — open in any browser]")

    if args.telemetry:
        snapshots = [r.metrics for r in results if r.metrics is not None]
        prom_path = pathlib.Path(args.telemetry)
        prom_path.parent.mkdir(parents=True, exist_ok=True)
        write_openmetrics(prom_path, merge_snapshots(snapshots))
        print(f"[wrote {prom_path} — OpenMetrics text, "
              f"{len(snapshots)} cell snapshots merged]")
        timeseries = {}
        for result in results:
            if result.telemetry is None:
                continue
            label = (f"{result.config.n_shards}s-"
                     f"{result.config.n_tenants}t-"
                     f"skew{result.config.skew:g}")
            timeseries[label] = result.telemetry
        timeseries_path = _write_json(out_dir / "timeseries.json",
                                      timeseries)
        telemetry_dash = out_dir / "telemetry_dashboard.html"
        telemetry_dash.write_text(render_telemetry_page(record, timeseries))
        print(f"[wrote {timeseries_path}]")
        print(f"[wrote {telemetry_dash} — open in any browser]")
    if recorders:
        trace_path = out_dir / "trace.json"
        recorders[0].write_json(trace_path)
        print(f"[wrote {trace_path} — first cell's request-scoped "
              f"trace; load in chrome://tracing or ui.perfetto.dev]")
    return 0


def macro_main(argv=None) -> int:
    """The ``macro`` subcommand: query-execution macro workload."""
    from repro.harness.dashboard import render_macro_page
    from repro.harness.macro import MacroConfig, run_macro
    from repro.workloads.registry import make_workload

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli macro",
        description="Run the query-execution macro tier: TPC-C-ish "
                    "plans (scans, B-tree walks, joins, inserts) "
                    "executed live against the buffer pool, with "
                    "operators holding page pins across their "
                    "lifetimes. Sweeps systems x shard counts, writes "
                    "a deterministic macro.json (byte-identical "
                    "across same-seed sim runs) and a per-operator "
                    "page-access dashboard.")
    parser.add_argument("--systems", nargs="+",
                        default=["pg2Q", "pgBat"],
                        help="systems to sweep (default pg2Q pgBat)")
    parser.add_argument("--workload", default="tpcc_lite",
                        help="query-plan workload (default tpcc_lite)")
    parser.add_argument("--warehouses", type=int, default=4,
                        help="tpcc_lite warehouse count (default 4)")
    parser.add_argument("--shards", nargs="+", type=int, default=[0],
                        help="shard counts to sweep; 0 = one pool "
                             "(default 0)")
    parser.add_argument("--runtime", choices=("sim", "native"),
                        default="sim",
                        help="execution backend (default sim)")
    parser.add_argument("--queries", type=int, default=240,
                        help="query target per cell (default 240)")
    parser.add_argument("--buffer", type=int, default=192,
                        help="buffer pool pages — keep below the "
                             "working set so eviction, write-back and "
                             "pin skips happen (default 192)")
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--threads", type=int, default=None,
                        help="back-end threads (default 2x processors)")
    parser.add_argument("--queue", type=int, default=16,
                        help="BP-Wrapper queue size (default 16)")
    parser.add_argument("--threshold", type=int, default=8,
                        help="batch threshold (default 8)")
    parser.add_argument("--controller", default=None,
                        help="attach a control-plane controller (e.g. "
                             "threshold) to every pool (one per shard "
                             "when sharded)")
    parser.add_argument("--no-disk", action="store_true",
                        help="drop the disk model (misses become "
                             "instant; write-backs disappear)")
    parser.add_argument("--bgwriter", action="store_true",
                        help="run the background writer daemon")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default out/)")
    args = parser.parse_args(argv)

    workload_kwargs = {}
    if args.workload == "tpcc_lite":
        workload_kwargs["n_warehouses"] = args.warehouses
    workload = make_workload(args.workload, seed=args.seed,
                             **workload_kwargs)
    base = MacroConfig(
        workload=args.workload, workload_kwargs=workload_kwargs,
        runtime=args.runtime, n_processors=args.processors,
        n_threads=args.threads, buffer_pages=args.buffer,
        target_queries=args.queries, use_disk=not args.no_disk,
        background_writer=args.bgwriter, queue_size=args.queue,
        batch_threshold=args.threshold, controller=args.controller,
        seed=args.seed)

    cells = []
    started = time.time()
    for system in args.systems:
        for n_shards in args.shards:
            config = base.with_params(system=system, n_shards=n_shards)
            cell_started = time.time()
            result = run_macro(config, workload=workload)
            cell_wall = time.time() - cell_started
            cells.append(result)
            print(f"  {result.summary()}  [{cell_wall:.1f}s wall]")
    elapsed = time.time() - started

    record = {
        "workload": args.workload,
        "runtime": args.runtime,
        "systems": list(args.systems),
        "shards": list(args.shards),
        "buffer_pages": args.buffer,
        "target_queries": args.queries,
        "seed": args.seed,
        "cells": [cell.to_dict() for cell in cells],
    }
    out_dir = pathlib.Path(args.out)
    record_path = _write_json(out_dir / "macro.json", record)
    dashboard_path = out_dir / "macro_dashboard.html"
    dashboard_path.write_text(render_macro_page(record))

    print(render_table(
        ["cell", "queries", "qps", "hit ratio", "write-backs",
         "pin skips", "stale hits", "cont/M"],
        [[f'{c.config.system}'
          + (f'/{c.config.n_shards}sh' if c.config.n_shards else ''),
          c.queries, f"{c.queries_per_sec:.1f}", f"{c.hit_ratio:.4f}",
          c.write_backs, c.pinned_victim_skips, c.stale_hit_retries,
          f"{c.lock_stats.contentions_per_million(c.accesses):.1f}"]
         for c in cells],
        title=f"Macro grid — {args.runtime} runtime"))
    detail = max(cells, key=lambda c: c.accesses)
    print(render_table(
        ["operator", "accesses", "writes", "hits"],
        [[name, entry["accesses"], entry["writes"], entry["hits"]]
         for name, entry in sorted(detail.op_breakdown.items(),
                                   key=lambda item: -item[1]["accesses"])],
        title=f"Per-operator page accesses — {detail.config.system}"))
    print(f"[{len(cells)} cells in {elapsed:.1f}s wall]")
    print(f"[wrote {record_path}]")
    print(f"[wrote {dashboard_path} — open in any browser]")
    return 0


def analyze_main(argv=None) -> int:
    """The ``analyze`` subcommand: observed sweep -> dashboard + tables."""
    from repro.harness.dashboard import render_dashboard
    from repro.harness.sweeps import observed_grid
    from repro.obs.analyze import (analyze_grid, attribution_table,
                                   breakdown_table, scaling_table,
                                   warmup_table)

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli analyze",
        description="Run a systems x processors sweep with the "
                    "observability layer on, derive the contention "
                    "diagnostics (per-lock breakdowns, warm-up cost, "
                    "batch correlation, blocked-time attribution) and "
                    "write a self-contained HTML dashboard.")
    parser.add_argument("--systems", nargs="+",
                        default=["pg2Q", "pgBatPre"],
                        help="systems to sweep (default pg2Q pgBatPre)")
    parser.add_argument("--workload", default="tablescan",
                        help="workload name (default tablescan)")
    parser.add_argument("--processors", nargs="+", type=int,
                        default=[4, 8],
                        help="processor counts (default 4 8)")
    parser.add_argument("--accesses", type=int, default=3_000,
                        help="page-access target per cell (default 3000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default out/)")
    args = parser.parse_args(argv)

    started = time.time()
    results, recorders = observed_grid(
        args.systems, args.workload, args.processors,
        target_accesses=args.accesses, seed=args.seed)
    analysis = analyze_grid(results, recorders)
    elapsed = time.time() - started

    out_dir = pathlib.Path(args.out)
    analysis_path = _write_json(out_dir / "analysis.json", analysis)
    dashboard_path = out_dir / "dashboard.html"
    dashboard_path.write_text(render_dashboard(analysis))

    headers, rows = scaling_table(analysis["scaling"])
    print(render_table(headers, rows, title="Sweep grid"))
    for run in analysis["runs"]:
        title = f'{run["system"]} @ {run["processors"]} cpus'
        headers, rows = breakdown_table(run["locks"])
        print()
        print(render_table(headers, rows,
                           title=f"Lock breakdown — {title}"))
        if "warmup" in run:
            headers, rows = warmup_table(run["warmup"])
            print()
            print(render_table(headers, rows,
                               title=f"Lock warm-up cost — {title}"))
        if "threads" in run:
            headers, rows = attribution_table(run["threads"], top=4)
            print()
            print(render_table(headers, rows,
                               title=f"Blocked time — {title}"))
    print(f"\n[{len(results)} observed runs analyzed in {elapsed:.1f}s]")
    print(f"[wrote {dashboard_path} — open in any browser]")
    print(f"[wrote {analysis_path}]")
    return 0


def tune_main(argv=None) -> int:
    """The ``tune`` subcommand: control-plane sweep + adapter probe."""
    from repro.control.tune import TuneConfig, run_tune
    from repro.harness.dashboard import render_tune_page

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli tune",
        description="Sweep the (batch threshold x queue size x "
                    "prefetch) space on the sim runtime — the paper's "
                    "Fig. 8 study as a tool — then probe the online "
                    "threshold adapter against the static-best cell "
                    "and the adaptive (regret-switching) policy "
                    "against its two expert policies. Writes a "
                    "byte-deterministic tune.json plus a heatmap "
                    "dashboard.")
    parser.add_argument("--workload", default="dbt1",
                        help="sweep workload (default dbt1)")
    parser.add_argument("--thresholds", nargs="+", type=int,
                        default=[1, 8, 32, 64],
                        help="batch thresholds to sweep "
                             "(default 1 8 32 64)")
    parser.add_argument("--queues", nargs="+", type=int, default=[128],
                        help="queue sizes to sweep (default 128)")
    parser.add_argument("--prefetch", choices=("off", "on", "both"),
                        default="both",
                        help="prefetch axis: off = pgBat only, on = "
                             "pgBatPre only, both = sweep both "
                             "(default both)")
    parser.add_argument("--processors", type=int, default=16)
    parser.add_argument("--accesses", type=int, default=4_000,
                        help="page-access target per cell "
                             "(default 4000)")
    parser.add_argument("--buffer", type=int, default=None,
                        metavar="PAGES",
                        help="pool capacity in pages (default: "
                             "--fraction of the working set, so the "
                             "sweep has real eviction pressure)")
    parser.add_argument("--fraction", type=float, default=0.25,
                        help="working-set fraction sizing the pool "
                             "when --buffer is unset (default 0.25)")
    parser.add_argument("--controller", default="threshold",
                        help="controller the convergence probe "
                             "attaches (default threshold)")
    parser.add_argument("--adaptive-workloads", nargs="+",
                        default=["tablescan", "dbt1"],
                        help="workloads for the adaptive-policy "
                             "hit-ratio face-off (>= 2; default "
                             "tablescan dbt1)")
    parser.add_argument("--policies", nargs=2, default=["lru", "lfu"],
                        metavar=("A", "B"),
                        help="expert pair the adaptive policy "
                             "switches between (default lru lfu)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="out", metavar="DIR",
                        help="output directory (default out/)")
    args = parser.parse_args(argv)

    prefetch = {"off": (False,), "on": (True,),
                "both": (False, True)}[args.prefetch]
    config = TuneConfig(
        workload=args.workload, thresholds=tuple(args.thresholds),
        queue_sizes=tuple(args.queues), prefetch=prefetch,
        n_processors=args.processors, target_accesses=args.accesses,
        buffer_pages=args.buffer, buffer_fraction=args.fraction,
        controller=args.controller,
        adaptive_workloads=tuple(args.adaptive_workloads),
        adaptive_policies=tuple(args.policies), seed=args.seed)

    started = time.time()
    record = run_tune(config)
    elapsed = time.time() - started

    out_dir = pathlib.Path(args.out)
    record_path = _write_json(out_dir / "tune.json", record)
    dashboard_path = out_dir / "tune_dashboard.html"
    dashboard_path.write_text(render_tune_page(record))

    best = record["static_best"]
    adapter = record["adapter"]
    print(render_table(
        ["cell", "threshold", "tps", "cont/M", "cont/access",
         "hit ratio", "mean batch"],
        [[f'q{c["queue_size"]} {c["system"]}', c["batch_threshold"],
          f'{c["throughput_tps"]:.1f}',
          f'{c["contention_per_million"]:.1f}',
          f'{c["contention_rate"]:.4f}', f'{c["hit_ratio"]:.4f}',
          f'{c["mean_batch_size"]:.1f}']
         for c in record["grid"]],
        title=f'Tune grid — {record["workload"]}, '
              f'{record["buffer_pages"]} buffer pages'))
    print(f'\nstatic best: threshold {best["batch_threshold"]} on '
          f'q{best["queue_size"]} {best["system"]} — '
          f'{best["throughput_tps"]:.1f} tps')
    controller = adapter["controller"] or {}
    print(f'adapter:     threshold {adapter["start_threshold"]} -> '
          f'{adapter["batch_threshold"]} in '
          f'{controller.get("decisions", 0)} decisions — '
          f'{adapter["throughput_tps"]:.1f} tps '
          f'({100.0 * adapter["fraction_of_best"]:.1f}% of best)')
    for entry in record["adaptive"]:
        ratios = ", ".join(f"{name} {value:.4f}" for name, value in
                           sorted(entry["hit_ratios"].items()))
        verdict = "ok" if entry["ok"] else "BELOW FLOOR"
        print(f'adaptive:    {entry["workload"]} ({ratios}) {verdict}')
    print(f"[{len(record['grid'])} cells in {elapsed:.1f}s wall]")
    print(f"[wrote {record_path}]")
    print(f"[wrote {dashboard_path} — open in any browser]")
    return 0


def perf_diff_main(argv=None) -> int:
    """The ``perf-diff`` subcommand: measure, compare, gate."""
    from repro.obs.baseline import (compare_baseline, load_baseline,
                                    measure_current, record_baseline)

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli perf-diff",
        description="Measure the perf gate metrics (deterministic "
                    "fixed-seed sim throughput and lock time per "
                    "access) and compare them against the baseline "
                    "store; exits 1 on regression, 2 when the "
                    "baseline is missing. Wall-clock speed is the "
                    "perf ledger's job (benchmarks/ledger/).")
    parser.add_argument("--baseline", default="BENCH_baseline.json",
                        metavar="PATH",
                        help="baseline store (default "
                             "BENCH_baseline.json)")
    parser.add_argument("--mode", choices=("compare", "record", "update"),
                        default="compare",
                        help="compare (gate, default), record (write a "
                             "fresh baseline), or update (compare then "
                             "re-record)")
    parser.add_argument("--threshold", type=float, default=None,
                        metavar="FRAC",
                        help="override every metric's tolerance with "
                             "this fraction (e.g. 0.15)")
    parser.add_argument("--note", default="",
                        help="annotation stored with a recorded "
                             "baseline's trajectory entry")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the comparison rows as JSON")
    args = parser.parse_args(argv)

    current = measure_current(seed=args.seed)
    if args.mode == "record":
        path = record_baseline(args.baseline, current, note=args.note)
        print(render_table(
            ["metric", "value", "kind", "direction"],
            [[name, entry["value"], entry["kind"], entry["direction"]]
             for name, entry in sorted(current.items())],
            title="Recorded baseline"))
        print(f"[wrote {path}]")
        return 0

    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"error: no baseline at {args.baseline} — run "
              f"`perf-diff --mode record` first", file=sys.stderr)
        return 2
    diff = compare_baseline(baseline, current,
                            tolerance_override=args.threshold)
    print(render_table(
        ["metric", "baseline", "current", "change", "tolerance",
         "status"],
        [[row["metric"], row["baseline"], row["current"],
          "-" if row["change"] is None else f"{row['change']:+.1%}",
          "-" if row["tolerance"] is None else f"{row['tolerance']:.0%}",
          row["status"]] for row in diff.rows],
        title=f"Perf diff vs {args.baseline}"))
    if args.json:
        _write_json(args.json, diff.rows)
        print(f"[wrote {args.json}]")
    if args.mode == "update":
        record_baseline(args.baseline, current, note=args.note)
        print(f"[baseline updated: {args.baseline}]")
    if diff.regressions:
        print(f"REGRESSION: {', '.join(diff.regressions)} beyond "
              f"tolerance", file=sys.stderr)
        return 1
    print(f"[gate clean: {len(diff.rows)} metrics within tolerance]")
    return 0


def check_main(argv=None) -> int:
    """The ``check`` subcommand: oracle matrix + schedule fuzzer."""
    from repro.check import differential_check, record_arrivals, run_fuzzer
    from repro.errors import CheckError, PolicyError
    from repro.harness.experiment import ExperimentConfig
    from repro.harness.sweeps import default_workload_kwargs

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli check",
        description="Run the correctness subsystem: checked "
                    "multi-threaded runs (lock-protocol monitor + "
                    "policy invariants), the differential oracle "
                    "(batched vs direct replay must produce identical "
                    "hit/miss/eviction streams), and a deterministic "
                    "schedule fuzzer over queue-geometry corners. "
                    "Exits 1 on any violation.")
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=[11, 17, 23],
                        help="oracle seeds (default 11 17 23)")
    parser.add_argument("--policies", nargs="+", default=["2q", "lru"],
                        help="policies the oracle sweeps "
                             "(default 2q lru)")
    parser.add_argument("--systems", nargs="+",
                        default=["pgBat", "pgBatPre"],
                        help="batched candidates replayed against the "
                             "pg2Q baseline (default pgBat pgBatPre)")
    parser.add_argument("--workload", default="tablescan",
                        help="workload name (default tablescan, "
                             "shrunk to 4x40 pages)")
    parser.add_argument("--accesses", type=int, default=2_000,
                        help="page-access target per recorded run")
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--processors", type=int, default=4)
    parser.add_argument("--queue", type=int, default=8,
                        help="queue_size for the oracle runs")
    parser.add_argument("--threshold", type=int, default=4,
                        help="batch_threshold for the oracle runs")
    parser.add_argument("--buffer", type=int, default=96,
                        help="buffer pages — kept below the working "
                             "set so evictions and stale entries "
                             "actually happen (default 96)")
    parser.add_argument("--fuzz", type=int, default=10, metavar="N",
                        help="fuzzed configurations to sweep "
                             "(default 10; 0 disables)")
    parser.add_argument("--fuzz-seed", type=int, default=0,
                        help="fuzzer base seed (same seed -> same "
                             "cases and verdicts)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking failing fuzz cases")
    # Mutation canary (deliberately undocumented): reverse each batch
    # at drain time in the candidate replays. CI asserts the oracle
    # catches it (non-zero exit), proving the comparison has teeth.
    parser.add_argument("--inject-reorder", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "tablescan":
        workload_kwargs = {"n_tables": 4, "pages_per_table": 40}
    else:
        workload_kwargs = default_workload_kwargs(args.workload)
    failures = 0
    started = time.time()
    print(f"== differential oracle ({len(args.policies)} policies x "
          f"{len(args.seeds)} seeds x {len(args.systems)} systems) ==")
    for policy in args.policies:
        for seed in args.seeds:
            config = ExperimentConfig(
                system=args.systems[0], workload=args.workload,
                workload_kwargs=workload_kwargs,
                n_processors=args.processors, n_threads=args.threads,
                buffer_pages=args.buffer,
                target_accesses=args.accesses, warmup_fraction=0.0,
                policy_name=policy, queue_size=args.queue,
                batch_threshold=args.threshold, seed=seed)
            try:
                arrivals = record_arrivals(config)
            except (CheckError, PolicyError) as exc:
                print(f"  policy={policy:5s} seed={seed:4d} VIOLATION "
                      f"in checked run: {exc}")
                failures += 1
                continue
            for system in args.systems:
                verdict = differential_check(
                    config, candidate=system, arrivals=arrivals,
                    inject_reorder=args.inject_reorder)
                print(f"  policy={policy:5s} seed={seed:4d} {verdict}")
                if not verdict.equivalent:
                    failures += 1

    if args.fuzz > 0:
        print(f"\n== schedule fuzzer ({args.fuzz} cases, base seed "
              f"{args.fuzz_seed}) ==")
        report = run_fuzzer(args.fuzz_seed, args.fuzz,
                            inject_reorder=args.inject_reorder,
                            shrink=not args.no_shrink,
                            log=lambda line: print(f"  {line}"))
        failures += len(report.failures)
        for outcome in report.failures:
            if outcome.shrunk is not None:
                print(f"  minimal repro: {outcome.shrunk.describe()}")

    elapsed = time.time() - started
    if failures:
        print(f"\nFAIL: {failures} correctness violation(s) found in "
              f"{elapsed:.1f}s", file=sys.stderr)
        return 1
    print(f"\n[check clean in {elapsed:.1f}s]")
    return 0


_SUBCOMMANDS = {
    "run": run_main,
    "trace": trace_main,
    "analyze": analyze_main,
    "serve": serve_main,
    "macro": macro_main,
    "tune": tune_main,
    "perf-diff": perf_diff_main,
    "check": check_main,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate the BP-Wrapper paper's tables/figures, "
                    "or run a subcommand: 'run' (one experiment on the "
                    "sim or native runtime), 'trace' (one observed run), "
                    "'analyze' (observed sweep -> HTML dashboard), "
                    "'serve' (sharded multi-tenant serving sweep -> "
                    "per-shard contention heatmap), 'macro' (query-"
                    "execution macro workload -> per-operator page "
                    "accesses), 'tune' (control-plane sweep -> Fig. 8 "
                    "heatmap + adapter/adaptive probes), "
                    "'perf-diff' (perf gate vs baseline), "
                    "'check' (correctness gate: invariants + oracle + "
                    "fuzzer).")
    parser.add_argument("artifacts", nargs="+",
                        choices=sorted(_ARTIFACTS) + ["all"],
                        help="which artifacts to regenerate")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write CSVs into this directory")
    parser.add_argument("--charts", action="store_true",
                        help="render ASCII charts of the figures' "
                             "series as well")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", default=None, metavar="N",
                        help="worker processes for independent runs: an "
                             "integer, 'auto' (one per CPU), or 1/0 for "
                             "serial; default honours REPRO_PARALLEL")
    args = parser.parse_args(argv)

    names = list(_ARTIFACTS) if "all" in args.artifacts else args.artifacts
    csv_dir = pathlib.Path(args.csv) if args.csv else None
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)

    for name in names:
        driver = _ARTIFACTS[name]
        started = time.time()
        if name == "table1":
            result = driver()
        else:
            result = driver(seed=args.seed, max_workers=args.workers)
        elapsed = time.time() - started
        if isinstance(result, figures.FigureResult):
            print(result.render(include_charts=args.charts))
        else:  # table drivers have no charts
            print(result.render())
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
        if csv_dir is not None:
            path = csv_dir / f"{name}.csv"
            path.write_text(rows_to_csv(result.headers, result.rows))
            print(f"[wrote {path}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
