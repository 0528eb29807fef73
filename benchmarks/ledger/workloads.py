"""The six workloads of the perf ledger: what runs, at which size, and
what every result must satisfy.

Each workload is a closed loop (a back-end issues its next transaction
only when the previous one finished) made of *cells*: one public run
call — ``run_experiment`` / ``run_serve`` / ``run_macro`` — of one
Table-I system at a frozen size. Sizes were calibrated so each cell
takes about 0.9 s on the reference host (2 CPUs, CPython 3.11, GIL on)
and must not be edited by a change that claims a gain.

Only names exported through a ``repro.*`` ``__all__`` are imported, so
the ledger survives refactors of the harness internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro import (ALTIX_350, ExperimentConfig, PageId, Simulator,
                   build_system, make_workload, run_experiment)
from repro.harness.macro import MacroConfig, run_macro
from repro.runtime.native import NativeRuntime
from repro.serve import ServeConfig, run_serve

__all__ = ["Cell", "Workload", "WORKLOADS", "END_TO_END_SYSTEMS",
           "SMOKE_DIVISOR", "check_cell", "check_pass", "counter_rows",
           "digest", "facts", "scale_host_seconds"]

#: The systems every workload reports an ``accesses_per_s.<system>`` for.
END_TO_END_SYSTEMS = ("pgBatPre", "pgclock", "pg2Q")

#: ``--smoke`` divides every cell size by this.
SMOKE_DIVISOR = 10

#: Wall-clock deadline of native/mp cells (``max_sim_time_us``).
DEADLINE_US = 60_000_000.0

_DBT2 = {"n_warehouses": 10}
_SCAN = {"n_tables": 20, "pages_per_table": 200}


@dataclasses.dataclass(frozen=True)
class Cell:
    """One public run call of one system at a frozen size."""

    name: str
    system: str
    #: Target in the tier's own unit: accesses, requests or queries.
    size: int
    #: False = runs only in the traced pass, for the layer rows.
    end_to_end: bool = True
    #: Config overrides on top of the workload's base config.
    overrides: Tuple[Tuple[str, object], ...] = ()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: "experiment", "serve" or "macro": which public call runs a cell.
    tier: str
    #: Deterministic simulator clock (digests and the profile fold apply).
    sim: bool
    #: Base config fields shared by every cell.
    base: Dict[str, object]
    cells: Tuple[Cell, ...]
    #: ``make_workload`` arguments; None for serve (tenants generate pages).
    source: Optional[Tuple[str, Dict[str, object]]] = None

    def cell(self, name: str) -> Cell:
        return next(cell for cell in self.cells if cell.name == name)

    def make_source(self, seed: int):
        if self.source is None:
            return None
        name, kwargs = self.source
        return make_workload(name, seed=seed, **kwargs)

    def config(self, cell: Cell, seed: int, scale: float = 1.0):
        size = max(1, int(cell.size * scale))
        fields = dict(self.base, system=cell.system, seed=seed,
                      **dict(cell.overrides))
        if self.tier == "serve":
            return ServeConfig(target_requests=size, **fields)
        if self.tier == "macro":
            return MacroConfig(target_queries=size, **fields)
        return ExperimentConfig(target_accesses=size, **fields)

    def run(self, config, source):
        """The one timed call of a cell."""
        if self.tier == "serve":
            return run_serve(config)
        if self.tier == "macro":
            return run_macro(config, source)
        return run_experiment(config, source)

    def build_standalone(self, config, source, tracer) -> None:
        """Build and warm the pools one cell needs, outside any run.

        The run calls build their own pools internally; this copy exists
        so that ``setup_s`` sees the cost of set-up alone. The mp backend
        lays out shared memory instead of calling ``build_system``; its
        start-up is measured around the run (see ``measure.py``).
        """
        if getattr(config, "runtime", "sim") == "mp":
            return
        if self.tier == "serve":
            pages = [PageId("tenant", block) for block in range(
                config.n_tenants * config.pages_per_tenant
                + config.hot_pages)]
            pools = config.n_shards
        else:
            pages = source.working_set_pages()
            pools = 1
        capacity = getattr(config, "buffer_pages", None)
        if capacity is None:
            capacity = len(pages) // pools + 64
        for index in range(pools):
            runtime = (NativeRuntime() if config.runtime == "native"
                       else Simulator())
            with tracer.span("build_system"):
                build = build_system(config.system, runtime, capacity,
                                     config.machine)
            with tracer.span("warm_with"):
                build.manager.warm_with(pages[index::pools][:capacity])


def _experiment(name: str, sim: bool, base: dict, source, cells) -> Workload:
    return Workload(name, "experiment", sim,
                    dict(base, workload=source[0], workload_kwargs=source[1],
                         machine=ALTIX_350),
                    tuple(cells), source)


_NATIVE = {"runtime": "native", "n_processors": 2, "n_threads": 2,
           "max_sim_time_us": DEADLINE_US}
_MP = {"runtime": "mp", "n_processors": 2, "max_sim_time_us": DEADLINE_US}

# On the real-thread runtimes a lock-per-hit system with two clients
# falls into lock-convoy modes (22 k-129 k accesses/s between runs of
# the same code), so its end-to-end cell runs one client and the
# contended two-client run is a layer cell.
_ONE_THREAD = (("n_processors", 1), ("n_threads", 1))
_ONE_WORKER = (("n_processors", 1),)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    _experiment(
        "fig6_hit", True, {"n_processors": 16}, ("dbt2", _DBT2),
        [Cell("pgclock", "pgclock", 100_000),
         Cell("pg2Q", "pg2Q", 50_000),
         Cell("pgBatPre", "pgBatPre", 100_000)]),
    _experiment(
        "table3_miss", True,
        {"n_processors": 8, "buffer_pages": 242, "use_disk": True,
         "background_writer": True}, ("dbt2", _DBT2),
        [Cell("pgclock", "pgclock", 30_000),
         Cell("pg2Q", "pg2Q", 30_000),
         Cell("pgBatPre", "pgBatPre", 30_000)]),
    Workload(
        "serve_sim", "serve", True, {"quota_per_sec": 4000},
        (Cell("pg2Q", "pg2Q", 12_000),
         Cell("pgBatPre", "pgBatPre", 16_000),
         Cell("pgclock", "pgclock", 24_000))),
    Workload(
        "macro_sim", "macro", True, {"background_writer": True},
        (Cell("pg2Q", "pg2Q", 1_200),
         Cell("pgBatPre", "pgBatPre", 1_500),
         Cell("pgclock", "pgclock", 1_500)),
        ("tpcc_lite", {})),
    _experiment(
        "native_threads", False, _NATIVE, ("tablescan", _SCAN),
        [Cell("pgBatPre", "pgBatPre", 220_000),
         Cell("pgclock", "pgclock", 320_000),
         Cell("pg2Q", "pg2Q", 120_000, overrides=_ONE_THREAD),
         Cell("pg2Q.2c", "pg2Q", 120_000, end_to_end=False)]),
    _experiment(
        "mp_scale", False, _MP, ("tablescan", _SCAN),
        [Cell("pgBatPre", "pgBatPre", 500_000),
         Cell("pgclock", "pgclock", 600_000),
         Cell("pg2Q", "pg2Q", 120_000, overrides=_ONE_WORKER),
         Cell("pg2Q.2c", "pg2Q", 120_000, end_to_end=False),
         Cell("pgBatPre.1c", "pgBatPre", 250_000, end_to_end=False,
              overrides=_ONE_WORKER)]),
)}


# -- what a result says ------------------------------------------------------

def digest(result) -> str:
    """sha256 of the result's sorted-JSON record."""
    record = json.dumps(result.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(record.encode()).hexdigest()


def facts(workload: Workload, result, wall_s: float,
          cpu_s: float) -> Dict[str, float]:
    """One flat view over the three result types (public fields only).

    ``accesses`` is the whole run's count, ``done`` the progress in the
    cell's own unit, ``counted`` what ``hits + misses`` must add up to.
    """
    if workload.tier == "serve":
        shards, tenants = result.shard_records, result.tenant_records
        accesses = result.accesses
        admitted = sum(t["admitted"] for t in tenants)
        fact = {
            "done": result.requests,
            "misses": sum(s["misses"] for s in shards),
            "counted": accesses,
            "contentions_per_maccess": result.contention_per_million,
            "lock_us_per_access": sum(
                s["lock_wait_us"] + s["lock_hold_us"]
                for s in shards) / accesses,
            "completed": sum(t["completed"] for t in tenants),
            "throttled_share": (sum(t["throttled"] for t in tenants)
                                / admitted if admitted else 0.0),
            "backpressure_events": sum(
                s["backpressure_events"] for s in shards),
            "p99_ms": result.worst_p99_ms,
            "txn_per_s": result.requests_per_sec,
            "resp_p95_ms": max(t["latency_p95_ms"] for t in tenants),
        }
    elif workload.tier == "macro":
        accesses = result.accesses
        lock = result.lock_stats
        fact = {
            "done": result.queries,
            "misses": result.misses,
            "counted": accesses,
            "contentions_per_maccess": lock.contentions_per_million(accesses),
            "lock_us_per_access": lock.lock_time_per_access_us(accesses),
            "pinned_victim_skips": result.pinned_victim_skips,
            "stale_hit_retries": result.stale_hit_retries,
            "txn_per_s": result.queries_per_sec,
            "resp_p95_ms": result.p95_response_ms,
        }
    else:
        accesses = result.total_accesses
        fact = {
            "done": accesses,
            "misses": result.misses,
            # hits and misses cover the post-warm-up window only.
            "counted": result.accesses,
            "contentions_per_maccess": result.contention_per_million,
            "lock_us_per_access": result.lock_time_per_access_us,
            "mean_batch_size": result.mean_batch_size,
            "stale_entry_share": result.stale_queue_entries / accesses,
            "prefetch_valid_share": (
                result.prefetches_valid / result.prefetches_issued
                if result.prefetches_issued else 0.0),
            "txn_per_s": result.throughput_tps,
            "resp_p95_ms": result.p95_response_ms,
        }
        if not workload.sim:  # on sim the run's clock is not the host's
            fact["run_clock_s"] = result.elapsed_us / 1e6
    if workload.tier != "serve":
        for name in ("write_backs", "bgwriter_cleaned", "disk_reads",
                     "disk_writes"):
            fact[name] = getattr(result, name)
    fact.update(accesses=accesses, hits=result.hits,
                hit_ratio=result.hit_ratio, wall_s=wall_s, cpu_s=cpu_s)
    return fact


def scale_host_seconds(fact: Dict[str, float], speed: float) -> None:
    """Scale a fact's host times to the reference host speed, in place."""
    for name in ("wall_s", "cpu_s", "run_clock_s"):
        if name in fact:
            fact[name] *= speed


# -- output checks -----------------------------------------------------------

def check_cell(workload: Workload, cell: Cell, target: int,
               fact: Dict[str, float]) -> List[str]:
    """Errors of one cell's result; empty when it is correct."""
    errors = []
    if fact["hits"] + fact["misses"] != fact["counted"]:
        errors.append(
            f"hits {fact['hits']} + misses {fact['misses']} != "
            f"accesses {fact['counted']}")
    if fact["done"] < target:
        errors.append(f"completed {fact['done']} < target {target}")
    name, ratio = workload.name, fact["hit_ratio"]
    contentions = fact["contentions_per_maccess"]
    if name == "fig6_hit":
        if ratio != 1.0:
            errors.append(f"hit ratio {ratio} != 1.0 (data fits the cache)")
        limits = {"pgclock": (0, 0), "pg2Q": (100_000, float("inf")),
                  "pgBatPre": (0, 1_000)}
        low, high = limits[cell.system]
        if not low <= contentions <= high:
            errors.append(
                f"{contentions:.0f} contentions per million outside "
                f"[{low}, {high}]")
    elif name == "table3_miss":
        if not 0.25 < ratio < 0.60:
            errors.append(f"hit ratio {ratio:.3f} outside (0.25, 0.60)")
        cleaned = fact["write_backs"] + fact["bgwriter_cleaned"]
        if fact["disk_writes"] != cleaned:
            errors.append(
                f"disk_writes {fact['disk_writes']} != write_backs + "
                f"bgwriter_cleaned {cleaned}")
    elif name == "serve_sim":
        if fact["completed"] != fact["done"]:
            errors.append(
                f"tenant completions {fact['completed']} != requests "
                f"{fact['done']}")
        if fact["accesses"] != 4 * fact["done"]:
            errors.append(
                f"accesses {fact['accesses']} != 4 x requests {fact['done']}")
    elif name == "macro_sim":
        if not fact["write_backs"] > 0:
            errors.append("no write-backs")
        if not fact["pinned_victim_skips"] > 0:
            errors.append("no pinned-victim skips")
    elif ratio != 1.0:
        errors.append(f"hit ratio {ratio} != 1.0 (miss-free run)")
    return errors


def check_pass(workload: Workload,
               fact_by_cell: Dict[str, Dict[str, float]]) -> Dict[str, str]:
    """Checks that relate the cells of one pass: cell name -> error."""
    if workload.name == "table3_miss" and {"pg2Q", "pgclock"} <= set(
            fact_by_cell):
        twoq = fact_by_cell["pg2Q"]["hit_ratio"]
        clock = fact_by_cell["pgclock"]["hit_ratio"]
        if not twoq > clock:
            return {"pg2Q": f"2Q hit ratio {twoq:.3f} not above CLOCK's "
                            f"{clock:.3f}"}
    return {}


# -- per-layer rows read from public result counters -------------------------

#: A two-client pg2Q pass above this many contentions per million
#: accesses ran in a lock convoy.
CONVOY_CONTENTIONS = 100_000


def counter_rows(workload: Workload,
                 fact_by_cell: Dict[str, Dict[str, float]]
                 ) -> Dict[str, float]:
    """The counter-derived layer rows of one untraced pass.

    Every row is always present; one whose layer is not on this
    workload's path (or whose cell failed) reads 0. ``sync.*.pg2Q`` read
    the contended run: the two-client layer cell where there is one.
    """
    batched = fact_by_cell.get("pgBatPre", {})
    two_clients = fact_by_cell.get("pg2Q.2c", {})
    contended = two_clients or fact_by_cell.get("pg2Q", {})
    per_k = 1000.0 / batched["accesses"] if batched else 0.0
    per_k_done = 1000.0 / batched["done"] if batched else 0.0

    def of(fact: Dict[str, float], key: str, scale: float = 1.0) -> float:
        return fact.get(key, 0.0) * scale

    def rate(fact: Dict[str, float], clock: str = "wall_s") -> float:
        return fact["accesses"] / fact[clock] if fact else 0.0

    rows = {
        "sync.contentions_per_maccess.pg2Q":
            of(contended, "contentions_per_maccess"),
        "sync.contentions_per_maccess.pgBatPre":
            of(batched, "contentions_per_maccess"),
        "sync.lock_us_per_access.pg2Q": of(contended, "lock_us_per_access"),
        "sync.lock_us_per_access.pgBatPre": of(batched, "lock_us_per_access"),
        "core.mean_batch_size": of(batched, "mean_batch_size"),
        "core.stale_entry_share": of(batched, "stale_entry_share"),
        "hardware.prefetch_valid_share": of(batched, "prefetch_valid_share"),
        "bufmgr.hit_ratio": of(batched, "hit_ratio"),
        "bufmgr.write_backs_per_kaccess": of(batched, "write_backs", per_k),
        "bufmgr.pinned_victim_skips_per_kaccess":
            of(batched, "pinned_victim_skips", per_k),
        "bufmgr.stale_hit_retries": of(batched, "stale_hit_retries"),
        "bufmgr.bgwriter_cleaned_per_kaccess":
            of(batched, "bgwriter_cleaned", per_k),
        "db.disk_reads_per_kaccess": of(batched, "disk_reads", per_k),
        "db.disk_writes_per_kaccess": of(batched, "disk_writes", per_k),
        "db.queries_per_s": (
            batched["done"] / batched["wall_s"]
            if workload.tier == "macro" and batched else 0.0),
        "serve.requests_per_s": (
            batched["done"] / batched["wall_s"]
            if workload.tier == "serve" and batched else 0.0),
        "serve.throttled_share": of(batched, "throttled_share"),
        "serve.backpressure_per_krequest":
            of(batched, "backpressure_events", per_k_done),
        "serve.p99_ms": of(batched, "p99_ms"),
        "harness.txn_per_s.pgBatPre": of(batched, "txn_per_s"),
        "harness.resp_p95_ms.pgBatPre": of(batched, "resp_p95_ms"),
        "runtime.native.accesses_per_s.pg2Q": 0.0,
        "runtime.native.convoy_runs": 0.0,
        "runtime.mp.accesses_per_s.pg2Q": 0.0,
        "runtime.mp.startup_s": 0.0,
        "runtime.mp.scaling_2w_over_1w.pg2Q": 0.0,
        "runtime.mp.scaling_2w_over_1w.pgBatPre": 0.0,
    }
    if workload.name == "native_threads":
        rows["runtime.native.accesses_per_s.pg2Q"] = rate(two_clients)
        rows["runtime.native.convoy_runs"] = float(
            of(two_clients, "contentions_per_maccess") > CONVOY_CONTENTIONS)
    elif workload.name == "mp_scale":
        rows["runtime.mp.accesses_per_s.pg2Q"] = rate(two_clients)
        # Process start-up happens inside the run call on mp: what the
        # call took beyond the run's own clock.
        startups = [fact["wall_s"] - fact["run_clock_s"]
                    for fact in fact_by_cell.values()]
        if startups:
            rows["runtime.mp.startup_s"] = sum(startups) / len(startups)
        for system, two, one in (("pg2Q", "pg2Q.2c", "pg2Q"),
                                 ("pgBatPre", "pgBatPre", "pgBatPre.1c")):
            if two in fact_by_cell and one in fact_by_cell:
                rows[f"runtime.mp.scaling_2w_over_1w.{system}"] = (
                    rate(fact_by_cell[two], "run_clock_s")
                    / rate(fact_by_cell[one], "run_clock_s"))
    return {name: float(value) for name, value in rows.items()}
