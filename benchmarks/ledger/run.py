"""Perf ledger: run the benchmark workloads end to end and layer by layer.

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed N] [--workload W]
        [--passes N | --seconds S] [--trace 0|1] [--smoke] [--out DIR]

Every workload declared in ``BENCHMARK.json`` runs in fresh
subprocesses of its own (``PYTHONHASHSEED=0``): set-up-only ones that
time the way from interpreter start to the first timed cell, and one
that runs the timed passes and checks every output. A metric is the
median over passes. One ``workload metric value unit`` line is printed
per metric, ``<out>/results.json`` and ``<out>/trace.json`` are
written, and the exit code is non-zero if any output check failed.

``--trace 0`` measures the end-to-end metrics only; ``--trace 1`` the
per-layer ones only (counters of two untraced passes, a profiled pass
and the layer microbenchmarks); without it both. With one ``--workload``
the last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from measure import Tracer  # stdlib-only until a child imports workloads

__all__ = ["main", "spawn", "stats", "load_spec"]

#: Set-up is timed in this many fresh interpreters per workload.
SETUP_SAMPLES = 5
DEFAULT_PASSES = 5
#: Untraced passes of a ``--trace 1`` run (they feed the counter rows).
TRACE_ONLY_PASSES = 2
#: A child is killed after this long; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def stats(values: List[float], bound: Optional[float] = None) -> dict:
    """Median, quartiles and spread of one row's per-pass values."""
    median = statistics.median(values)
    row = {"median": median, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        row.update(q1=q1, q3=q3,
                   iqr_over_median=(q3 - q1) / median if median else 0.0)
        if bound is not None:
            # Spread wider than the bound: the value cannot settle a
            # comparison and is never shown as if it could.
            row["resolved"] = row["iqr_over_median"] <= bound
    return row


def spawn(mode: str, args, parent_span: str, extra=()) -> dict:
    """Run one child to its end; its report, or ``{"crash": why}``."""
    command = [sys.executable, str(HERE / "run.py"), "--child", mode,
               "--seed", str(args.seed), "--parent-span", parent_span,
               "--spawned-at", repr(time.time()), *extra]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            return {"crash": f"child exited with code {child.returncode}"}
        return json.loads(output.splitlines()[-1])
    except subprocess.TimeoutExpired:
        return {"crash": f"child timed out after {CHILD_TIMEOUT_S:.0f} s"}
    except (IndexError, ValueError):
        return {"crash": "child printed no report"}
    finally:
        # The child leads its own process group: nothing it started
        # (mp workers, pool processes) outlives this call.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:
        return set()


def run_workload(name: str, args, spec: dict, tracer: Tracer) -> dict:
    """Measure one workload in subprocesses of its own; its record."""
    end_to_end = args.trace != 1
    trace = args.trace != 0
    if args.passes is not None:
        passes = args.passes
    elif not end_to_end:
        passes = TRACE_ONLY_PASSES
    elif args.smoke:
        passes = 2
    else:
        passes = None if args.seconds is not None else DEFAULT_PASSES
    extra = ["--workload", name, "--trace", str(int(trace))]
    if passes is None:
        extra += ["--seconds", str(args.seconds)]
    else:
        extra += ["--passes", str(passes)]
    record = {"errors": [], "end_to_end": {}, "per_layer": {}}
    with tracer.span("workload", workload=name) as span:
        segments = _shm_segments()
        reports = []
        if end_to_end:
            samples = 1 if args.smoke else SETUP_SAMPLES - 1
            reports = [spawn("setup", args, span["id"], extra)
                       for _ in range(samples)]
        main = spawn("measure", args, span["id"], extra)
        reports.append(main)
        leaked = sorted(_shm_segments() - segments)
    for report in reports:
        tracer.spans.extend(report.get("spans", ()))
        if "crash" in report:
            record["errors"].append({"error": report["crash"]})
    if leaked:
        record["errors"].append(
            {"error": f"left /dev/shm segments behind: {', '.join(leaked)}"})
    values = dict(main.get("values", {}))
    if end_to_end and not record["errors"]:
        values["setup_s"] = [report["setup_s"] + main["run_startup_s"]
                             for report in reports]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for kind in ("end_to_end",) * end_to_end + ("per_layer",):
        for metric in spec[kind]:
            if metric["name"] in values:
                record[kind][metric["name"]] = dict(
                    stats(values[metric["name"]],
                          bounds.get(metric["name"])), unit=metric["unit"])
    record["errors"] += main.get("errors", [])
    record.update(
        passes=main.get("passes", 0), digests=main.get("digests", {}),
        profile=main.get("profile"), gil_enabled=main.get("gil_enabled"),
        ops_attempted=main.get("ops_attempted", 1),
        ops_failed=main.get("ops_failed", 1))
    if record["errors"] and not record["ops_failed"]:
        record["ops_failed"] = record["ops_attempted"]
    return record


def _print_rows(workload: str, rows: Dict[str, dict]) -> None:
    for name, row in rows.items():
        if row.get("resolved") is False:
            shown = (f"unresolved (median {row['median']:.6g}, IQR/median "
                     f"{row['iqr_over_median']:.1%} over its bound)")
        else:
            shown = f"{row['median']:.6g}"
        spread = (f"  [{row['q1']:.6g} .. {row['q3']:.6g}, n={row['n']}]"
                  if "q1" in row else "")
        print(f"{workload} {name} {shown} {row['unit']}{spread}")


def _child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    if args.child == "layers":
        import layers
        tracer = Tracer(f"layers.{os.getpid()}", args.parent_span)
        # A run of --seconds spends about as long again on the layers.
        min_s = 0.005 if args.smoke else (
            args.seconds / 200.0 if args.seconds is not None else 0.2)
        report = {"values": layers.run_all(
            tracer, args.seed, min_s, 1 if args.smoke else 3, args.smoke),
            "spans": tracer.spans}
    else:
        import workloads
        from repro.runtime.native import gil_enabled
        if (gil_enabled() and workloads.WORKLOADS[args.workload].base.get(
                "runtime") != "mp"):  # mp workers run side by side
            measure.pin_to_one_cpu()
        report = measure.measure(
            args.workload, args.seed, args.spawned_at, smoke=args.smoke,
            setup_only=args.child == "setup", trace=bool(args.trace),
            passes=args.passes, seconds=args.seconds or 0.0,
            parent_span=args.parent_span)
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42,
                        help="becomes every config's seed (default 42)")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--passes", type=int,
                        help=f"timed passes (default {DEFAULT_PASSES})")
    parser.add_argument("--seconds", type=float,
                        help="run timed passes for this long instead "
                             "(at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two passes")
    parser.add_argument("--out", default=str(ROOT / "out" / "ledger"),
                        help="directory of results.json and trace.json")
    for name, kind in (("--child", str), ("--parent-span", str),
                       ("--spawned-at", float)):
        parser.add_argument(name, type=kind, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"BENCHMARK.json declares: {', '.join(names)}")
    selected = [args.workload] if args.workload else names
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    tracer = Tracer(f"run.{os.getpid()}")
    load_start = os.getloadavg()[0]
    workloads: Dict[str, dict] = {}
    layer_rows: Dict[str, dict] = {}
    failed = False
    with tracer.span("benchmark", seed=args.seed) as root:
        for name in selected:
            record = workloads[name] = run_workload(name, args, spec, tracer)
            _print_rows(name, record["end_to_end"])
            _print_rows(name, record["per_layer"])
            for error in record["errors"]:
                where = ("" if "cell" not in error else
                         f" pass {error['pass']} cell {error['cell']}:")
                print(f"{name} FAILED{where} {error['error']}")
            print(f"{name} ops_attempted {record['ops_attempted']} count")
            print(f"{name} ops_failed {record['ops_failed']} count")
            failed = failed or bool(record["ops_failed"])
        if args.trace != 0:
            report = spawn("layers", args, root["id"], (
                ["--seconds", str(args.seconds)] if args.seconds else []))
            tracer.spans.extend(report.get("spans", ()))
            if "crash" in report:
                print(f"layers FAILED {report['crash']}")
                failed = True
            layer_rows = {name: dict(stats([value]), unit=units[name])
                          for name, value in report.get("values", {}).items()
                          if name in units}
            _print_rows("-", layer_rows)

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": 1, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "python_build": " ".join(platform.python_build()),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "gil_enabled": next((r["gil_enabled"] for r in workloads.values()
                                 if r["gil_enabled"] is not None), None),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
        "workloads": workloads, "layers": layer_rows,
    }
    (out / "results.json").write_text(json.dumps(document, indent=1) + "\n")
    (out / "trace.json").write_text(json.dumps(tracer.spans, indent=1) + "\n")

    if args.workload is not None:
        record = workloads[args.workload]
        kinds = [kind for kind, skipped_by in (("end_to_end", 1),
                                               ("per_layer", 0))
                 if args.trace != skipped_by]
        rows = {**layer_rows, **{name: row for kind in kinds
                                 for name, row in record[kind].items()}}
        wanted = [m["name"] for kind in kinds for m in spec[kind]]
        missing = [name for name in wanted if name not in rows]
        if missing:
            print(f"{args.workload} FAILED not measured: "
                  f"{', '.join(missing)}")
            failed = True
        if len(missing) < len(wanted):  # a crash prints no result at all
            print(json.dumps({
                "correct": not failed,
                "attempted": record["ops_attempted"],
                "failed": record["ops_failed"],
                "metrics": {name: {"value": rows[name]["median"],
                                   "unit": rows[name]["unit"]}
                            for name in wanted if name in rows}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
