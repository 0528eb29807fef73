"""Fig. 6/7 in wall-clock time: throughput scaling across real cores.

The simulator reproduces the paper's scaling *shapes* in virtual time;
this benchmark reproduces them in **wall-clock** time on the host's
actual cores. It sweeps worker counts for the lock-per-hit baseline
(``pg2Q``) against the batched systems (``pgBat`` / ``pgBatPre``) on a
truly parallel backend and records accesses/sec per cell — the curve
pair where pg2Q flattens under contention while pgBat keeps climbing
(Fig. 6), and contention per million accesses collapses by orders of
magnitude (Fig. 7).

Backend selection (``--backend auto``, the default): free-threaded
CPython runs OS threads in parallel, so ``runtime="native"`` is the
real thing there; on GIL builds the sweep uses ``runtime="mp"`` —
forked worker processes over a shared-memory frame table with
futex-backed locks (see :mod:`repro.runtime.mp`).

Outputs:

* ``BENCH_scaling.json`` — the raw record (cells, host facts);
* ``scaling.html`` — a self-contained chart page
  (:func:`repro.harness.dashboard.scaling_report`).

Usage (the ``make bench-scaling`` target)::

    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --workers 1,2,4 --systems pg2Q pgBat pgBatPre --out out

``--assert-divergence`` makes the run fail (exit 1) if the batched
system does *not* out-scale pg2Q at the top worker count — the CI
smoke guard. On a single-core host the assertion is vacuous and skips
with a note: every backend serializes there and the paper's effect
cannot physically appear.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

if __name__ == "__main__":  # runnable without an installed package
    _SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.harness.dashboard import (render_html,  # noqa: E402
                                     scaling_report)
from repro.harness.experiment import (ExperimentConfig,  # noqa: E402
                                      run_experiment)
from repro.runtime.native import true_thread_parallelism  # noqa: E402

__all__ = ["measure_cell", "measure_scaling", "main"]

DEFAULT_SYSTEMS = ("pg2Q", "pgBat", "pgBatPre")


def resolve_backend(requested: str) -> str:
    """``auto`` -> the backend that is truly parallel on this build."""
    if requested != "auto":
        return requested
    return "native" if true_thread_parallelism() else "mp"


def measure_cell(system: str, workers: int, backend: str, workload: str,
                 accesses: int, seed: int) -> dict:
    """One (system, worker-count) run; returns the record row."""
    config = ExperimentConfig(
        system=system, workload=workload, runtime=backend,
        n_processors=workers, n_threads=workers,
        target_accesses=accesses, warmup_fraction=0.0, seed=seed,
        max_sim_time_us=300_000_000.0)
    started = time.perf_counter()
    result = run_experiment(config)
    wall_s = time.perf_counter() - started
    elapsed_s = result.elapsed_us / 1_000_000.0
    return {
        "system": system,
        "workers": workers,
        "events_per_sec": (round(result.total_accesses / elapsed_s)
                           if elapsed_s > 0 else 0),
        "throughput_tps": round(result.throughput_tps, 1),
        "contention_per_million": round(result.contention_per_million, 1),
        "lock_time_per_access_us": round(result.lock_time_per_access_us,
                                         3),
        "mean_response_ms": round(result.mean_response_ms, 3),
        "cpu_utilization": round(result.cpu_utilization, 3),
        "hit_ratio": round(result.hit_ratio, 4),
        "mean_batch_size": round(result.mean_batch_size, 1),
        "accesses": result.total_accesses,
        "wall_s": round(wall_s, 2),
    }


def measure_scaling(workers, systems, backend="auto",
                    workload="tablescan", accesses=40_000,
                    seed=42) -> dict:
    """The full sweep: every system at every worker count."""
    backend = resolve_backend(backend)
    cells = []
    for system in systems:
        for count in workers:
            cell = measure_cell(system, count, backend, workload,
                                accesses, seed)
            cells.append(cell)
            print(f"  {system:9s} w={count:2d} "
                  f"{cell['events_per_sec']:8d} acc/s "
                  f"cont/M={cell['contention_per_million']:8.1f} "
                  f"wall={cell['wall_s']:.2f}s", flush=True)
    return {
        "backend": backend,
        "host_cpus": os.cpu_count() or 1,
        "gil_enabled": not true_thread_parallelism(),
        "workers": list(workers),
        "systems": list(systems),
        "workload": workload,
        "accesses": accesses,
        "seed": seed,
        "cells": cells,
    }


def check_divergence(record: dict) -> tuple:
    """(ok, message): does the batched system out-scale pg2Q?

    Vacuously ok (with an explanatory message) when the host cannot
    exhibit the effect: a single core, or a single-worker-only sweep.
    """
    top = max(record["workers"])
    if record["host_cpus"] < 2 or top < 2:
        return True, ("divergence assertion skipped: single-core host "
                      "or single-worker sweep cannot exhibit it")
    systems = record["systems"]
    batched = next((s for s in systems if s.startswith("pgBat")), None)
    if batched is None or "pg2Q" not in systems:
        return True, ("divergence assertion skipped: needs pg2Q and a "
                      "pgBat* system in the sweep")
    rate = {(c["system"], c["workers"]): c["events_per_sec"]
            for c in record["cells"]}
    base = rate.get(("pg2Q", top), 0)
    batch = rate.get((batched, top), 0)
    if batch >= base:
        return True, (f"{batched}@{top}w {batch} acc/s >= "
                      f"pg2Q@{top}w {base} acc/s")
    return False, (f"{batched}@{top}w {batch} acc/s < "
                   f"pg2Q@{top}w {base} acc/s — batching should never "
                   "lose to lock-per-hit on parallel hardware")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock scaling sweep (Fig. 6/7 shapes); "
                    "writes BENCH_scaling.json + scaling.html")
    parser.add_argument("--workers", default="1,2",
                        help="comma-separated worker counts "
                             "(default: 1,2)")
    parser.add_argument("--systems", nargs="+", default=DEFAULT_SYSTEMS,
                        help="systems to sweep (default: pg2Q pgBat "
                             "pgBatPre)")
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "mp", "native"),
                        help="auto picks the truly parallel backend "
                             "for this CPython build")
    parser.add_argument("--workload", default="tablescan")
    parser.add_argument("--accesses", type=int, default=40_000,
                        help="access target per cell")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_scaling.json and "
                             "scaling.html")
    parser.add_argument("--assert-divergence", action="store_true",
                        help="exit 1 unless pgBat out-scales pg2Q at "
                             "the top worker count (multi-core hosts)")
    args = parser.parse_args(argv)
    try:
        workers = sorted({int(part) for part in
                          args.workers.split(",") if part.strip()})
    except ValueError:
        parser.error(f"--workers must be comma-separated integers, "
                     f"got {args.workers!r}")
    if not workers or min(workers) < 1:
        parser.error("--workers needs at least one count >= 1")

    record = measure_scaling(workers, args.systems,
                             backend=args.backend,
                             workload=args.workload,
                             accesses=args.accesses, seed=args.seed)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "BENCH_scaling.json"
    json_path.write_text(json.dumps(record, indent=1) + "\n")
    html_path = out_dir / "scaling.html"
    html_path.write_text(render_html(scaling_report(record)))
    print(f"[wrote {json_path} and {html_path}]")

    ok, message = check_divergence(record)
    print(("[divergence] " if ok else "[DIVERGENCE FAILURE] ") + message)
    if args.assert_divergence and not ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
