"""Command-line entry point for regenerating the paper's artifacts.

Usage::

    python -m repro.harness.cli fig2
    python -m repro.harness.cli fig6 fig7 --csv out/
    python -m repro.harness.cli all
    python -m repro.harness.cli SUBCOMMAND [options]   # --help lists them

Subcommands (each has its own ``--help``):

========= ===========================================================
run       one experiment on the sim, native (real OS threads) or mp
          runtime
trace     one observed run -> Chrome/Perfetto ``trace.json``, metrics
          snapshot, flame summary of the top lock-holding spans
analyze   observed systems x processors sweep -> ``analysis.json`` +
          ``dashboard.html``
serve     sharded multi-tenant serving sweep -> ``serve.json`` +
          per-shard contention heatmap (``--telemetry``: OpenMetrics,
          time series, SLO page)
macro     query-execution macro tier -> ``macro.json`` + per-operator
          page accesses
tune      control-plane sweep -> ``tune.json`` + Fig. 8 heatmap,
          adapter and adaptive-policy probes
hitratio  policy hit ratios over a workload or a trace file, without
          the simulator
check     correctness gate: invariants + differential oracle + fuzzer
========= ===========================================================

Each artifact prints as an aligned ASCII table; ``--csv DIR`` also
writes one CSV per artifact into ``DIR``. The sweep subcommands
(``analyze``, ``serve``, ``macro``, ``tune``) each build one
:class:`~repro.harness.report.Report` from their record and emit it
twice — the HTML page and the same tables in the terminal (see
``docs/observability.md``). Rejected input — a
:class:`~repro.errors.ConfigError`, or a trace file ``hitratio``
cannot read — prints ``error: <message>`` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Dict

from repro.errors import ConfigError
from repro.harness import figures, tables
from repro.harness.report import render_table, render_text, rows_to_csv

__all__ = ["analyze_main", "check_main", "hitratio_main", "macro_main",
           "main", "run_main", "serve_main", "trace_main", "tune_main"]

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


def _emit(out_dir: pathlib.Path, record_name: str, record,
          page_name: str, report, started=None) -> None:
    """What every sweep subcommand ends in: the record as JSON, its
    report as the HTML page and as terminal text, and where they went."""
    from repro.harness.dashboard import render_html
    record_path = _write_json(out_dir / record_name, record)
    page_path = out_dir / page_name
    page_path.write_text(render_html(report))
    print(render_text(report) + "\n")
    if started is not None:
        print(f"[sweep done in {time.time() - started:.1f}s wall]")
    print(f"[wrote {record_path}]")
    print(f"[wrote {page_path} — open in any browser]")


def _cell_progress(results: list):
    """A sweep's per-cell ``progress`` callback: keep the result and
    print its summary with the wall time the cell took."""
    mark = [time.time()]

    def progress(result) -> None:
        now = time.time()
        results.append(result)
        print(f"  {result.summary()}  [{now - mark[0]:.1f}s wall]")
        mark[0] = now
    return progress


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
                    "OS threads and reports wall-clock lock statistics "
                    "(a micro-benchmark of this host, not a "
                    "reproduction of the paper's machine; with the GIL "
                    "on, its threads take turns and rarely contend); "
                    "--runtime "
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
    # merges the registry snapshots its workers report into it.
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
        row = system_spec(args.system)
        print("[mp policy core: " + (
            "reference-bit CLOCK sweep" if row.lock_free_hit else
            "intrusive doubly-linked LRU list (move-to-front on hit) under "
            f"the {row.name} lock discipline, not the configured "
            f"{row.policy_name}") + "]")
    if args.runtime == "native":
        # What the contention rows below can show on this interpreter.
        from repro.runtime.native import gil_enabled
        print("[native threads, gil_enabled() = True: one thread runs "
              "Python at a time and hands the GIL over between "
              "transactions, so the contention figures show almost no "
              "contention whatever the system]" if gil_enabled() else
              "[native threads, gil_enabled() = False: threads run in "
              "parallel, so the contention figures count real "
              "simultaneous lock requests]")
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
    from repro.harness.dashboard import serve_report, telemetry_report
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
    started = time.time()
    record = serve_grid(base, args.shards, args.tenants, args.skews,
                        observer_factory=observer_factory,
                        checker_factory=checker_factory,
                        progress=_cell_progress(results))
    out_dir = pathlib.Path(args.out)
    _emit(out_dir, "serve.json", record, "serve_dashboard.html",
          serve_report(record), started)

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
        _emit(out_dir, "timeseries.json", timeseries,
              "telemetry_dashboard.html",
              telemetry_report(record, timeseries))
    if recorders:
        trace_path = out_dir / "trace.json"
        recorders[0].write_json(trace_path)
        print(f"[wrote {trace_path} — first cell's request-scoped "
              f"trace; load in chrome://tracing or ui.perfetto.dev]")
    return 0


def macro_main(argv=None) -> int:
    """The ``macro`` subcommand: query-execution macro workload."""
    from repro.harness.dashboard import macro_report
    from repro.harness.macro import MacroConfig, macro_grid

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
    base = MacroConfig(
        workload=args.workload, workload_kwargs=workload_kwargs,
        runtime=args.runtime, n_processors=args.processors,
        n_threads=args.threads, buffer_pages=args.buffer,
        target_queries=args.queries, use_disk=not args.no_disk,
        background_writer=args.bgwriter, queue_size=args.queue,
        batch_threshold=args.threshold, controller=args.controller,
        seed=args.seed)

    started = time.time()
    record = macro_grid(base, args.systems, args.shards,
                        progress=_cell_progress([]))
    _emit(pathlib.Path(args.out), "macro.json", record,
          "macro_dashboard.html", macro_report(record), started)
    return 0


def analyze_main(argv=None) -> int:
    """The ``analyze`` subcommand: observed sweep -> dashboard + tables."""
    from repro.harness.dashboard import analysis_report
    from repro.harness.sweeps import observed_grid
    from repro.obs.analyze import analyze_grid

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
    _emit(pathlib.Path(args.out), "analysis.json", analysis,
          "dashboard.html", analysis_report(analysis), started)
    return 0


def tune_main(argv=None) -> int:
    """The ``tune`` subcommand: control-plane sweep + adapter probe."""
    from repro.control.tune import TuneConfig, run_tune
    from repro.harness.dashboard import tune_report

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
    _emit(pathlib.Path(args.out), "tune.json", record,
          "tune_dashboard.html", tune_report(record), started)
    return 0


def hitratio_main(argv=None) -> int:
    """The ``hitratio`` subcommand: policy hit ratios, no simulator."""
    from repro.analysis.hitratio import replay, replay_through_wrapper
    from repro.errors import ReproError
    from repro.policies.registry import available_policies
    from repro.workloads.base import merged_trace
    from repro.workloads.registry import available_workloads, make_workload
    from repro.workloads.traces import load_trace

    parser = argparse.ArgumentParser(
        prog="repro.harness.cli hitratio",
        description="Replay access traces through replacement policies "
                    "and report hit ratios.")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", choices=available_workloads(),
                        default="dbt1",
                        help="generate the trace from a built-in workload")
    source.add_argument("--trace", metavar="FILE",
                        help="replay an explicit trace file instead")
    parser.add_argument("--policies", nargs="+", default=["2q", "clock"],
                        choices=available_policies(), metavar="POLICY",
                        help="policies to compare")
    parser.add_argument("--accesses", type=int, default=60_000,
                        help="trace length for generated workloads")
    parser.add_argument("--seed", type=int, default=42)
    sizes = parser.add_mutually_exclusive_group()
    sizes.add_argument("--capacities", nargs="+", type=int,
                       metavar="PAGES", help="absolute buffer sizes")
    sizes.add_argument("--fractions", nargs="+", type=float,
                       metavar="FRAC",
                       help="buffer sizes as fractions of the page space")
    parser.add_argument("--wrapped", action="store_true",
                        help="also replay through BP-Wrapper's deferral "
                             "schedule (queue 64 / threshold 32 / 8 "
                             "threads)")
    args = parser.parse_args(argv)

    try:
        if args.trace:
            trace = load_trace(args.trace)
            total_pages = len(set(trace))
            label = args.trace
        else:
            workload = make_workload(args.workload, seed=args.seed)
            trace = merged_trace(workload, args.accesses)
            total_pages = workload.total_pages
            label = workload.describe()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    capacities = args.capacities or sorted(
        {max(16, int(total_pages * fraction))
         for fraction in args.fractions or [0.05, 0.1, 0.2, 0.4]})

    headers = ["capacity"]
    for name in args.policies:
        headers.append(name)
        if args.wrapped:
            headers.append(f"{name}+BP")
    rows = []
    for capacity in capacities:
        row = [capacity]
        for name in args.policies:
            row.append(round(replay(name, trace,
                                    capacity=capacity).hit_ratio, 4))
            if args.wrapped:
                row.append(round(replay_through_wrapper(
                    name, trace, capacity=capacity, queue_size=64,
                    batch_threshold=32, n_threads=8).hit_ratio, 4))
        rows.append(row)
    print(render_table(
        headers, rows,
        title=f"Hit ratios — {label}, {len(trace):,} accesses"))
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
    "hitratio": hitratio_main,
    "check": check_main,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        try:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        except ConfigError as exc:
            # The message is the whole explanation; a traceback adds
            # nothing for a rejected configuration.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate the BP-Wrapper paper's tables/figures, "
                    "or run a subcommand ("
                    + ", ".join(_SUBCOMMANDS) + "); each subcommand "
                    "has its own --help.")
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
        print(result.render(include_charts=args.charts))
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
        if csv_dir is not None:
            path = csv_dir / f"{name}.csv"
            path.write_text(rows_to_csv(result.headers, result.rows))
            print(f"[wrote {path}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
