"""The macro tier: query plans executed live against the buffer pool.

Where :mod:`repro.harness.experiment` replays pre-flattened page
traces, :func:`run_macro` drives the :mod:`repro.db.exec` operators —
scans, B-tree walks, joins, inserts — against a real
:class:`~repro.bufmgr.manager.BufferManager`, with every fetch going
through :meth:`~repro.bufmgr.manager.BufferManager.request` with
``keep_pin`` and operators holding pins across their lifetimes. Three
execution modes share one thread body:

* ``runtime="sim"`` — the deterministic discrete-event simulator;
  ``macro.json`` built from a sim run is byte-identical across
  same-seed invocations (the CI ``macro-smoke`` job ``cmp``'s two).
* ``runtime="native"`` — real OS threads, wall-clock time, the join
  deadline as deadlock guard.
* ``n_shards > 0`` (sim only) — pages route by stable hash to
  independent :class:`~repro.serve.shard.BufferShard` pools, the
  serving-layer flavor of the macro tier.

Because the workload mixes for-update fetches with long scans over a
pool smaller than the working set, a run exercises the paths no trace
workload touches: dirty-victim write-backs (``write_backs``) and
pin-blocked victim selection (``pinned_victim_skips``) are both
non-zero in the run summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Generator, Iterator, List, Optional

from repro.db.exec.context import (ExecContext, LiveExecContext,
                                   ShardedExecContext)
from repro.db.exec.executor import run_plan
from repro.db.transactions import TransactionLog, TransactionOutcome
from repro.control import SERVE_DEFAULTS, bp_kwargs
from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350, MachineSpec
from repro.harness.driver import Run, access_ordered_prefix
from repro.harness.driver import run as drive
from repro.harness.report import ResultRecord, derived, reported
from repro.harness.systems import build_system
from repro.simcore.rng import stream_rng
from repro.sync.stats import LockStats
from repro.workloads.registry import make_workload

__all__ = ["MacroConfig", "MacroResult", "macro_grid", "run_macro"]


@dataclass(frozen=True)
class MacroConfig:
    """Everything needed to reproduce one macro run."""

    system: str = "pgBat"
    workload: str = "tpcc_lite"
    workload_kwargs: dict = field(default_factory=dict)
    machine: MachineSpec = ALTIX_350
    n_processors: int = 4
    #: Back-end threads; None = 2x processors (overcommitted).
    n_threads: Optional[int] = None
    #: Buffer pool pages — deliberately defaulted *below* the
    #: tpcc_lite working set (~900 pages) so eviction, write-back and
    #: pinned-victim skipping actually happen.
    buffer_pages: int = 192
    #: Stop once this many queries completed (checked at query
    #: boundaries).
    target_queries: int = 240
    #: Attach the disk model so misses pay reads and dirty victims pay
    #: write-backs.
    use_disk: bool = True
    background_writer: bool = False
    policy_name: Optional[str] = None
    queue_size: int = SERVE_DEFAULTS.queue_size
    batch_threshold: int = SERVE_DEFAULTS.batch_threshold
    #: Attach a control-plane controller ("threshold") to every pool
    #: (each shard gets its own instance); None = knobs stay fixed.
    controller: Optional[str] = None
    seed: int = 42
    #: Sim-time safety net; wall-clock join deadline under native.
    max_sim_time_us: float = 600_000_000.0
    runtime: str = "sim"
    #: 0 = one pool; > 0 = that many independent hash-routed shards
    #: (sim runtime only).
    n_shards: int = 0

    def with_params(self, **overrides) -> "MacroConfig":
        return replace(self, **overrides)

    def resolved_threads(self) -> int:
        if self.n_threads is not None:
            if self.n_threads < 1:
                raise ConfigError(
                    f"n_threads must be >= 1, got {self.n_threads}")
            return self.n_threads
        return 2 * self.n_processors


@dataclass(frozen=True)
class MacroResult(ResultRecord):
    """Measurements from one macro run (whole run, no warm-up split);
    fields are declared once, in record order."""

    CONFIG_KEYS = ("system", "workload", "workload_kwargs", "machine",
                   "runtime", "n_shards", "n_processors", "n_threads",
                   "buffer_pages", "target_queries", "queue_size",
                   "batch_threshold", "background_writer", "seed")

    config: MacroConfig
    queries: int
    queries_by_kind: Dict[str, int]
    rows: int
    accesses: int
    hits: int
    misses: int
    hit_ratio: float = derived(digits=6)
    evictions: int
    write_backs: int
    pinned_victim_skips: int
    stale_hit_retries: int
    absorbed_misses: int
    disk_reads: int
    disk_writes: int
    bgwriter_cleaned: int
    elapsed_us: float = reported(digits=3)
    queries_per_sec: float = derived(digits=3)
    mean_response_ms: float = reported(digits=4)
    p95_response_ms: float = reported(digits=4)
    lock_stats: LockStats = reported("lock")
    #: op name -> {"accesses": n, "writes": n, "hits": n}, merged over
    #: every thread's context — the dashboard's per-operator breakdown.
    op_breakdown: Dict[str, Dict[str, int]]
    #: One controller summary per pool (shards in shard order), present
    #: only when ``config.controller`` was set; omitted from
    #: :meth:`to_dict` otherwise so existing records stay byte-stable.
    controllers: Optional[List[dict]] = None

    def summary(self) -> str:
        return (f"{self.config.system:9s} {self.config.workload:9s} "
                f"shards={self.config.n_shards} "
                f"qps={self.queries_per_sec:8.1f} "
                f"hit={self.hit_ratio:6.3f} "
                f"write_backs={self.write_backs:5d} "
                f"pin_skips={self.pinned_victim_skips:4d}")


def _query_body(runtime, thread, ctx: ExecContext, plans: Iterator,
                log: TransactionLog, shared: Dict[str, object],
                target_queries: int, user_work_us: float,
                quantum_us: float, stagger_us: float, work_rng,
                rows_box: List[int]) -> Generator[object, None, None]:
    """One back-end: pull plans, execute them, record outcomes."""
    # The per-statement settle step: the sim thread's maybe_yield test,
    # inline; a native thread keeps no simulated time and has none.
    settles = hasattr(thread, "maybe_yield")
    if stagger_us > 0:
        yield from thread.sleep_blocked(stagger_us)
    for query in plans:
        if shared["stop"]:
            return
        started = runtime.now
        accesses_before = ctx.total_accesses
        hits_before = ctx.total_hits
        for root in query.statements:
            rows = yield from run_plan(root, ctx)
            rows_box[0] += rows
            # Tuple-processing CPU work, jittered ±25% like the trace
            # harness so the sim does not phase-lock (the draw is
            # ``random.uniform(0.75, 1.25)``'s own formula).
            thread.pending_us += (user_work_us * (1 + rows)
                                  * (0.75 + 0.5 * work_rng.random()))
            if settles and (thread.cpu_time + thread.pending_us
                            - thread.yield_mark >= quantum_us):
                yield from thread.yield_cpu()
        log.record(TransactionOutcome(
            kind=query.kind, started_at_us=started,
            finished_at_us=runtime.now,
            accesses=ctx.total_accesses - accesses_before,
            hits=ctx.total_hits - hits_before))
        shared["queries"] += 1
        if shared["queries"] >= target_queries:
            shared["stop"] = True
            return
        if query.think_time_us > 0:
            yield from thread.sleep_blocked(query.think_time_us)
        yield from thread.yield_cpu()


def _merge_breakdowns(contexts: List[ExecContext]
                      ) -> Dict[str, Dict[str, int]]:
    """Per-operator counters over every context, in name order."""
    merged: Dict[str, Dict[str, int]] = {}
    for ctx in contexts:
        for name, entry in ctx.op_stats.items():
            into = merged.setdefault(
                name, {"accesses": 0, "writes": 0, "hits": 0})
            for key, value in entry.items():
                into[key] += value
    return dict(sorted(merged.items()))


def run_macro(config: MacroConfig, workload=None) -> MacroResult:
    """Execute one macro configuration and return its measurements."""
    if config.n_shards < 0:
        raise ConfigError(f"n_shards must be >= 0, got {config.n_shards}")
    if config.n_shards and config.runtime != "sim":
        raise ConfigError(
            "sharded macro runs are sim-only; drop n_shards or use "
            "runtime='sim'")
    if config.n_shards and config.background_writer:
        raise ConfigError(
            "the background writer sweeps one pool; drop n_shards or "
            "background_writer")
    costs = config.machine.costs
    log = TransactionLog()
    shards: List = []
    contexts: List[ExecContext] = []
    rows_box = [0]

    def build(run: Run) -> None:
        nonlocal workload
        if workload is None:
            workload = make_workload(config.workload, seed=config.seed,
                                     **config.workload_kwargs)
        if not hasattr(workload, "plan_stream"):
            raise ConfigError(
                f"workload {config.workload!r} has no plan_stream(); the "
                "macro tier needs a query-plan workload (e.g. tpcc_lite)")
        disk = run.create_disk(config.seed)
        prefix = access_ordered_prefix(workload, config.buffer_pages)
        if config.n_shards:
            from repro.serve.shard import BufferShard, shard_of
            per_shard = max(16, config.buffer_pages // config.n_shards)
            for shard_id in range(config.n_shards):
                shard = BufferShard(run.runtime, shard_id, config.system,
                                    per_shard, config.machine,
                                    **bp_kwargs(config), disk=disk)
                run.adopt(shard.build)
                shards.append(shard)
                routed = [page for page in prefix
                          if shard_of(page, config.n_shards) == shard_id]
                shard.warm_with(routed[:per_shard])
        else:
            pool = run.adopt(build_system(
                config.system, run.runtime, config.buffer_pages,
                config.machine, **bp_kwargs(config), disk=disk))
            pool.manager.warm_with(prefix)
            run.start_bgwriter(pool.manager)
        run.shared["queries"] = 0

    def body(run: Run, thread, index: int):
        if shards:
            ctx: ExecContext = ShardedExecContext(
                [shard.handler.new_slot(thread, index)
                 for shard in shards], shards)
        else:
            pool = run.builds[0]
            ctx = LiveExecContext(pool.handler.new_slot(thread, index),
                                  pool.manager)
        contexts.append(ctx)
        return _query_body(
            run.runtime, thread, ctx, workload.plan_stream(index), log,
            run.shared, config.target_queries, costs.user_work_us,
            costs.scheduler_quantum_us,
            stagger_us=run.stagger_us("macro-stagger", index),
            work_rng=stream_rng(config.seed, "macro-work", index),
            rows_box=rows_box)

    names = [f"backend-{index}"
             for index in range(config.resolved_threads())]
    return _finalize(config, drive(config, build, names, body), log,
                     contexts, rows_box[0])


def _finalize(config: MacroConfig, run: Run, log: TransactionLog,
              contexts: List[ExecContext], rows: int) -> MacroResult:
    stats = run.access_stats()
    return MacroResult(
        config=config,
        queries=log.count,
        queries_by_kind=dict(sorted(log.mix().items())),
        rows=rows,
        # Every pool-summed access counter the record declares.
        **{name: count for name, count in vars(stats).items()
           if name in MacroResult.__dataclass_fields__},
        **run.pool_side(),
        elapsed_us=run.elapsed_us,
        mean_response_ms=log.mean_response_time_us() / 1000.0,
        p95_response_ms=log.percentile_response_time_us(95.0) / 1000.0,
        lock_stats=run.lock_stats(),
        op_breakdown=_merge_breakdowns(contexts),
        controllers=run.controller_summaries(),
    )


def macro_grid(base: MacroConfig, systems, shards_list,
               progress=None) -> dict:
    """Sweep systems × shard counts; return one JSON-able grid record.

    The workload is built once and shared by every cell. ``progress``
    (callable) receives each cell's :class:`MacroResult` as it
    completes. The record's ``cells`` list is in sweep order
    (system-major, then shard count); wall time is not stored, so a sim
    record is byte-stable.
    """
    workload = make_workload(base.workload, seed=base.seed,
                             **base.workload_kwargs)
    cells = []
    for system in systems:
        for n_shards in shards_list:
            result = run_macro(
                base.with_params(system=system, n_shards=n_shards),
                workload=workload)
            if progress is not None:
                progress(result)
            cells.append(result.to_dict())
    return {
        "workload": base.workload,
        "runtime": base.runtime,
        "systems": list(systems),
        "shards": list(shards_list),
        "buffer_pages": base.buffer_pages,
        "target_queries": base.target_queries,
        "seed": base.seed,
        "cells": cells,
    }
