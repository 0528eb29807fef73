"""What one ledger subprocess does: set up a workload, run its timed
passes, check every result, and (traced) fold a profile by layer.

Runs only in a fresh interpreter started by ``run.py`` — importing the
workloads, and with them ``repro``, is part of the set-up time measured
here.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import os
import pstats
import re
import resource
import statistics
import time
import traceback
from typing import Dict, List, Optional

from hostspeed import Yardstick

__all__ = ["Tracer", "fold_profile", "measure", "pin_to_one_cpu",
           "PROFILE_LAYERS"]

#: The ``src/repro/`` packages the profile fold reports.
PROFILE_LAYERS = ("simcore", "sync", "hardware", "bufmgr", "core",
                  "policies", "workloads", "db", "serve", "obs", "harness")

#: The traced pass profiles this system's cell, at this share of its size.
PROFILED_SYSTEM = "pgBatPre"
PROFILE_SCALE = 0.5

#: Per-pass rows that are counted over the passes, not medianed.
COUNTED_ROWS = ("runtime.native.convoy_runs",)


class Tracer:
    """Plain spans kept in memory: id, parent, name, start, end."""

    def __init__(self, prefix: str, parent: Optional[str] = None) -> None:
        self.prefix = prefix
        self.spans: List[dict] = []
        self._open = [parent]

    @contextlib.contextmanager
    def span(self, name: str, **labels):
        record = {"id": f"{self.prefix}/{len(self.spans) + 1}",
                  "parent": self._open[-1], "name": name, **labels,
                  "start": time.time(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.time()


# -- profile fold ------------------------------------------------------------

_PACKAGE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")


def fold_profile(profile: cProfile.Profile) -> dict:
    """Self time and call counts of a profile, folded by repro package.

    A function in ``repro/<package>/`` belongs to that package. Any other
    function (builtins, stdlib, ``repro/util.py``) is split between the
    packages that called it, following the profile's caller edges — self
    time by the time each caller's calls took, calls by their number — so
    the packages add up to the profile's total. What no repro package
    called (the ledger's own frames) is ``other``.
    """
    stats = pstats.Stats(profile).stats
    home = {}
    for func in stats:
        match = _PACKAGE.search(func[0])
        home[func] = match.group(1) if match else None

    def shares(func, field, memo, path):
        if home[func] is not None:
            return {home[func]: 1.0}
        if func in memo:
            return memo[func]
        if func in path:
            return {}
        callers = stats[func][4]
        total = sum(edge[field] for edge in callers.values())
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            if caller not in stats:
                continue
            weight = edge[field] / total if total else 1.0 / len(callers)
            for layer, part in shares(caller, field, memo,
                                      path | {func}).items():
                out[layer] = out.get(layer, 0.0) + weight * part
        norm = sum(out.values())
        out = ({layer: part / norm for layer, part in out.items()}
               if norm else {"other": 1.0})
        memo[func] = out
        return out

    layers: Dict[str, Dict[str, float]] = {}
    time_memo: dict = {}
    call_memo: dict = {}
    total_s = total_calls = 0.0
    for func, (_, n_calls, self_s, _, _) in stats.items():
        total_s += self_s
        total_calls += n_calls
        for field, memo, key, amount in ((2, time_memo, "self_s", self_s),
                                         (1, call_memo, "calls", n_calls)):
            for layer, part in shares(func, field, memo,
                                      frozenset()).items():
                entry = layers.setdefault(layer,
                                          {"self_s": 0.0, "calls": 0.0})
                entry[key] += amount * part
    return {"total_s": total_s, "total_calls": total_calls,
            "layers": layers}


# -- one workload ------------------------------------------------------------

def _cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children.

    ``os.times()`` reads the same clocks in 10 ms ticks, too coarse for
    a one-second cell.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def pin_to_one_cpu() -> None:
    """Keep this process and its threads on one CPU, the highest allowed.

    Under the GIL the threads of a sim or native run take turns anyway.
    Left free, the scheduler spreads them over the vCPUs, every hand-off
    waits for the other vCPU to wake, and where the threads landed differs
    from process to process: the same native cell spread 27 % (IQR /
    median) between free processes against 15 % between pinned ones on the
    reference host, and ran 10 % slower.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _run_cell(defs, workload, cell, config, source, target: int,
              tracer: Tracer, digests: Dict[str, str]):
    """Time one cell and check its result: ``(facts, errors)``.

    A cell that raises is reported with its error text like one that
    fails a check; the run goes on with the next cell.
    """
    with tracer.span("cell", cell=cell.name):
        gc.collect()
        cpu_before = _cpu_seconds()
        wall_before = time.perf_counter()
        try:
            with tracer.span("run"):
                result = workload.run(config, source)
            wall_s = time.perf_counter() - wall_before
            cpu_s = _cpu_seconds() - cpu_before
            with tracer.span("check"):
                fact = defs.facts(workload, result, wall_s, cpu_s)
                errors = defs.check_cell(workload, cell, target, fact)
                if workload.sim:
                    found = defs.digest(result)
                    if digests.setdefault(cell.name, found) != found:
                        errors.append("result record differs between passes")
        except Exception as exc:  # a boundary: report it and keep running
            traceback.print_exc()
            return None, [f"{type(exc).__name__}: {exc}"]
    return fact, errors


def _pass_rows(defs, workload, facts: Dict[str, dict], timed: List[str],
               trace: bool) -> Dict[str, float]:
    """The rows one pass contributes, from its correct cells' facts."""
    rows = {f"accesses_per_s.{system}":
            facts[system]["accesses"] / facts[system]["wall_s"]
            for system in defs.END_TO_END_SYSTEMS if system in facts}
    if all(cell_name in facts for cell_name in timed):
        rows["cpu_s_per_maccess"] = (
            sum(facts[c]["cpu_s"] for c in timed) * 1e6
            / sum(facts[c]["accesses"] for c in timed))
    if trace:
        rows.update(defs.counter_rows(workload, facts))
    return rows


#: What a workload out of cProfile's reach folds to: every row reads 0.
_NO_FOLD = {"layers": {}, "total_calls": 0, "accesses": 1, "wall_s": 0.0}


def _fold_rows(folded: dict, speed: float,
               plain_rate: float) -> Dict[str, float]:
    """The rows of a profile fold.

    ``folded`` carries the profiled run's ``accesses`` and (scaled)
    ``wall_s``; ``plain_rate`` is the same cell's unprofiled accesses per
    second.
    """
    accesses = folded["accesses"]
    rows = {}
    for layer in PROFILE_LAYERS:
        entry = folded["layers"].get(layer, {"self_s": 0.0, "calls": 0.0})
        rows[f"{layer}.self_us_per_access"] = \
            entry["self_s"] * speed * 1e6 / accesses
        # Exact on the simulator; rounded so that the order in which
        # shares were added up cannot show in the last digits.
        rows[f"{layer}.calls_per_access"] = round(entry["calls"] / accesses, 4)
    rows["trace.calls_per_access"] = round(folded["total_calls"] / accesses, 4)
    rows["trace.overhead_ratio"] = folded["wall_s"] / accesses * plain_rate
    return rows


def measure(name: str, seed: int, spawned_at: float, *, smoke: bool,
            setup_only: bool, trace: bool, passes: Optional[int],
            seconds: float,
            parent_span: Optional[str] = None) -> dict:
    """Set up workload ``name`` and run its passes; the child's report.

    ``passes`` fixes the number of untraced passes; None runs them until
    ``seconds`` of measuring have gone by, and at least three. Every host
    time in the report is scaled to the reference host speed by one
    index for the whole run (see ``hostspeed.py``).
    """
    import workloads as defs  # imported here: part of the set-up time
    from repro.runtime.native import gil_enabled

    workload = defs.WORKLOADS[name]
    scale = 1.0 / defs.SMOKE_DIVISOR if smoke else 1.0
    kernel_runs = 1 if smoke else 2
    tracer = Tracer(f"{name}.{os.getpid()}", parent_span)
    timed_cells = [cell for cell in workload.cells if cell.end_to_end]
    layer_cells = [cell for cell in workload.cells
                   if trace and not cell.end_to_end]
    cells = timed_cells + layer_cells
    timed = [cell.name for cell in timed_cells]
    configs = {}

    def prepare(cell) -> None:
        configs[cell.name] = workload.config(cell, seed, scale)
        workload.build_standalone(configs[cell.name], source, tracer)
        with tracer.span("warm_up", cell=cell.name):
            # Lazy set-up (first-call imports, allocator growth) ends
            # before anything is timed, and is counted as set-up.
            try:
                workload.run(workload.config(
                    cell, seed, scale / defs.SMOKE_DIVISOR), source)
            except Exception:  # the timed cell raises again: reported
                traceback.print_exc()

    with tracer.span("setup"):
        with tracer.span("make_workload"):
            source = workload.make_source(seed)
        for cell in timed_cells:
            prepare(cell)
    setup_s = time.time() - spawned_at
    for cell in layer_cells:  # not part of the end-to-end set-up
        prepare(cell)
    yard = Yardstick()
    yard.sample(1 if smoke else 5)
    report = {"workload": name, "setup_s": setup_s * yard.speed(),
              "gil_enabled": gil_enabled(), "spans": tracer.spans}
    if setup_only:
        return report

    errors: List[dict] = []
    digests: Dict[str, str] = {}
    targets = {cell.name: max(1, int(cell.size * scale)) for cell in cells}
    facts_by_pass: List[Dict[str, dict]] = []
    started = time.perf_counter()
    while (len(facts_by_pass) < passes if passes is not None else
           len(facts_by_pass) < 3
           or time.perf_counter() - started < seconds):
        index = len(facts_by_pass)
        facts: Dict[str, dict] = {}
        found: Dict[str, List[str]] = {}
        with tracer.span("pass", index=index):
            for cell in cells if index % 2 == 0 else cells[::-1]:
                fact, found[cell.name] = _run_cell(
                    defs, workload, cell, configs[cell.name], source,
                    targets[cell.name], tracer, digests)
                yard.sample(kernel_runs)
                if fact is not None:
                    facts[cell.name] = fact
            for cell_name, text in defs.check_pass(workload, facts).items():
                found[cell_name].append(text)
        for cell_name, texts in found.items():
            if texts:
                facts.pop(cell_name, None)
                errors.extend({"pass": index, "cell": cell_name,
                               "error": text} for text in texts)
        facts_by_pass.append(facts)
    peak_rss_mb = _peak_rss_mb()  # before a profile inflates it

    folded = _NO_FOLD
    if trace and workload.sim:
        # Real threads and worker processes are outside cProfile's reach,
        # so only sim workloads have a fold.
        config = workload.config(workload.cell(PROFILED_SYSTEM), seed,
                                 scale * PROFILE_SCALE)
        profile = cProfile.Profile()
        gc.collect()
        with tracer.span("profiled_cell", cell=PROFILED_SYSTEM):
            wall_before = time.perf_counter()
            result = profile.runcall(workload.run, config, source)
            wall_s = time.perf_counter() - wall_before
        yard.sample(kernel_runs)
        fact = defs.facts(workload, result, wall_s, 0.0)
        folded = report["profile"] = dict(
            fold_profile(profile), accesses=fact["accesses"], wall_s=wall_s)

    speed = yard.speed()
    values: Dict[str, List[float]] = {}
    startups = []
    for facts in facts_by_pass:
        for fact in facts.values():
            defs.scale_host_seconds(fact, speed)
        for metric, value in _pass_rows(defs, workload, facts, timed,
                                        trace).items():
            values.setdefault(metric, []).append(value)
        if (workload.base.get("runtime") == "mp"
                and all(cell_name in facts for cell_name in timed)):
            # Process start-up happens inside the run call on mp: what
            # the calls took beyond the runs' own clocks counts as set-up.
            startups.append(sum(facts[c]["wall_s"] - facts[c]["run_clock_s"]
                                for c in timed))
    for metric in COUNTED_ROWS:
        if metric in values:
            values[metric] = [sum(values[metric])]
    values.update({"host.speed_index": [speed],
                   "peak_rss_mb": [peak_rss_mb]})
    if trace:
        plain = values.get(f"accesses_per_s.{PROFILED_SYSTEM}")
        rows = _fold_rows(dict(folded, wall_s=folded["wall_s"] * speed), speed,
                          statistics.median(plain) if plain else 0.0)
        values.update({metric: [value] for metric, value in rows.items()})
    report.update(
        passes=len(facts_by_pass), values=values, errors=errors,
        digests=digests,
        ops_attempted=len(facts_by_pass) * sum(targets.values()),
        ops_failed=sum(targets[cell] for _, cell in
                       {(e["pass"], e["cell"]) for e in errors}),
        run_startup_s=statistics.median(startups) if startups else 0.0)
    return report
