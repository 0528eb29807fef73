"""``mp`` backend: true multi-core wall-clock scaling via processes.

Stock CPython serializes OS threads with the GIL, so the ``native``
backend's wall-clock numbers measure lock *protocol* costs but not
multi-core *scaling* — at most one thread executes Python at a time.
This backend gets genuine parallelism the way PostgreSQL itself does:
worker **processes** operating on a buffer-pool frame table that lives
in shared memory, synchronized with real futex-backed OS locks
(``multiprocessing.Lock`` — a POSIX semaphore on Linux). It exists to
reproduce the paper's Fig. 6/7 in wall-clock time: pg2Q's throughput
collapses as workers are added while pgBat / pgBatPre keep scaling
(see ``benchmarks/bench_scaling.py``).

Runs go through the one run driver (:mod:`repro.harness.driver`):
:class:`MpRuntime`'s threads are worker processes **forked** once the
build has laid out the frame table (:mod:`repro.runtime.shm`), so they
close over the parent's table, locks and workload.

Synchronization protocol (the native backend's, across processes):

* the **replacement lock** (one ``mp.Lock``) serializes every policy
  mutation — LRU link surgery, evictions, page-map updates — exactly
  as PostgreSQL's BufFreelistLock does;
* **striped frame header locks** (``mp.Lock``, ``frame %
  HEADER_LOCK_STRIPES``) make pin/unpin/retag atomic per frame;
* the **reference bit** is written lock-free (single word store), the
  paper's pgclock discipline;
* page-map probes are lock-free and revalidated under the frame's
  header lock (a stale probe simply falls through to the locked miss
  path, which re-probes authoritatively).

The shared "advanced policy" core is an intrusive doubly-linked LRU
list (move-to-front on hit under the lock) — the hot-path shape of the
2Q/LRU family whose lock section the paper batches. pgclock uses the
reference-bit CLOCK sweep instead. Replacement decisions therefore
*approximate* the sim's policies (this backend measures wall-clock
scaling, not hit ratios; the sim remains the hit-ratio instrument),
which is why scaling runs pre-warm a pool that holds the whole working
set, as the paper does (§IV: "there are no misses incurred").

Measured quantities follow the sim/native conventions: a lock
*request* is a blocking acquire or a successful try, a *contention* is
a request that found the lock busy, wait/hold times are wall-clock
microseconds. Per-worker counters are kept process-locally (zero
sharing on the hot path) and aggregated by the parent after join.

Not supported here (``ConfigError``): the correctness checker, the
trace recorder, the disk model and bgwriter — the ``mp`` backend is
the in-memory contention engine; parity for those lives in the
``native`` backend. Transaction think times are skipped: workers are
closed-loop and CPU-saturated, the regime Fig. 6/7 measures.

**Metrics aggregation.** A *metrics-only* Observer (``trace=None``) IS
supported: each worker keeps a process-local
:class:`~repro.obs.metrics.MetricsRegistry` (``mp.access_us`` per-access
latency, ``lock.replacement-<system>.wait_us``/``hold_us`` as the
sim/native ``Observer`` names them, worker counters) and carries its
snapshot in the report it sends over its pipe; the finalize folds the
reports in worker-index order into the caller's registry via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` — the merged
``mp.access_us`` count equals the run's total access count.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import fields
from multiprocessing import connection
from typing import Any, Dict, List, Optional

from repro.bufmgr.manager import AccessStats
from repro.core.fifoqueue import AccessQueue
from repro.errors import SimulationError
from repro.runtime.base import drive, wall_budget_exceeded
from repro.runtime.shm import (F_GEN, F_PIN, F_REF, F_TAG, FRAME_WORDS,
                               FrameTable)
from repro.sync.stats import LockStats
from repro.util import nearest_rank

__all__ = ["MP_SYSTEMS", "MpRuntime", "MpThread", "trace_tier"]

#: Systems with an mp hot-path implementation (Table I's contenders).
MP_SYSTEMS = ("pgclock", "pg2Q", "pgBat", "pgBatPre")

#: Per-worker response-time reservoir size (p95 estimation).
_SAMPLE_CAP = 2000

#: Busy-spin "user work" per page access, microseconds. Small by
#: design: the scaling benchmark wants the lock path to be a visible
#: fraction of an access so contention separates the systems within
#: CI-sized runs (the paper's 50 us user work would need millions of
#: accesses per cell for the same resolution).
_DEFAULT_WORK_US = 2.0


# -- the worker -------------------------------------------------------------


def _calibrate_spin(min_window_s: float = 0.01) -> float:
    """Measured busy-loop iterations per microsecond on this core."""
    n = 50_000
    while True:
        started = time.perf_counter()
        i = 0
        while i < n:
            i += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_window_s:
            return n / (elapsed * 1e6)
        n *= 4


# -- the runtime: worker processes as the run's threads --------------------


class MpThread:
    """One worker process. :meth:`start` keeps the body and
    :meth:`MpRuntime.join` forks the process that drives it; the body's
    return value, the worker's report, comes back as :attr:`result`."""

    def __init__(self, runtime: "MpRuntime", name: str) -> None:
        self.runtime = runtime
        self.name = name
        self.body: Any = None
        self.result: Any = None
        self.process: Any = None
        #: The write end of the worker's pipe to the parent.
        self.pipe: Any = None

    def start(self, body) -> None:
        self.body = body

    def barrier(self):
        """(In the worker.) Report ready, then block until the parent
        releases every worker at once; returns ``()``. Not released
        within the run's budget, the parent is gone: give up."""
        self.pipe.send(("ready", None))
        if not self.runtime.released.wait(self.runtime.budget_s):
            raise SimulationError(f"{self.name} was never released")
        return ()

    def main(self) -> None:
        """(The worker process.) Drive the body, send what it returned."""
        try:
            message = ("ok", drive(self.body))
        except Exception:
            message = ("error", traceback.format_exc())
        self.pipe.send(message)

    def receive(self, reader) -> None:
        """(The parent.) Take the worker's next message, or raise because
        it failed or exited without sending one."""
        try:
            status, payload = reader.recv()
        except EOFError:
            self.process.join()
            raise SimulationError(
                f"mp worker {self.name} exited with code "
                f"{self.process.exitcode} before reporting") from None
        if status == "error":
            raise SimulationError(f"mp worker {self.name} failed:\n{payload}")
        self.result = payload


class MpRuntime:
    """The run lifecycle the driver calls — ``now``, ``create_pool``,
    ``create_thread`` and ``join`` — on forked worker processes. The
    build makes the frame table and its locks itself
    (:class:`~repro.runtime.shm.FrameTable`)."""

    def __init__(self) -> None:
        self.context = multiprocessing.get_context("fork")
        #: The start barrier: set once every worker has reported ready.
        self.released = self.context.Event()
        self._origin = time.perf_counter()
        self._ended: Optional[float] = None
        self.budget_s = 0.0

    @property
    def now(self) -> float:
        """Wall-clock µs since the start barrier released the workers;
        it stops at the last worker's report."""
        ended = time.perf_counter() if self._ended is None else self._ended
        return (ended - self._origin) * 1_000_000.0

    def create_pool(self, n_processors: int,
                    context_switch_us: float = 0.0) -> int:
        """The worker count: one process per processor."""
        return n_processors

    def create_thread(self, pool: int, name: str = "thread",
                      seed: int = 0) -> MpThread:
        return MpThread(self, name)

    def join(self, threads, daemons, budget_us: float) -> None:
        """Fork every worker, release them together once all are ready
        and take each one's report, within ``budget_us`` of wall time.

        A worker that fails or exits without reporting fails the run at
        once, by name; past the budget the run fails naming every worker
        still out. Either way every worker is reaped before this returns.
        """
        self.budget_s = budget_us / 1_000_000.0
        deadline = time.monotonic() + self.budget_s
        readers: Dict[Any, MpThread] = {}
        try:
            for thread in threads:
                reader, thread.pipe = self.context.Pipe(duplex=False)
                thread.process = self.context.Process(
                    target=thread.main, name=thread.name, daemon=True)
                thread.process.start()
                readers[reader] = thread
                # Only the worker holds the write end now: its exit,
                # however it dies, is the pipe's end of file.
                thread.pipe.close()
            for phase in ("ready", "report"):
                if phase == "report":
                    self._origin = time.perf_counter()
                    self.released.set()
                waiting = dict(readers)
                while waiting:
                    ready = connection.wait(
                        list(waiting), max(0.0, deadline - time.monotonic()))
                    if not ready:
                        raise wall_budget_exceeded("mp", budget_us, [
                            thread.name for thread in waiting.values()])
                    for reader in ready:
                        waiting.pop(reader).receive(reader)
            self._ended = time.perf_counter()
        finally:
            for reader, thread in readers.items():
                if thread.result is None:
                    thread.process.kill()
                thread.process.join()
                reader.close()


# -- the trace tier on mp: build, body, finalize ---------------------------


def trace_tier(config, workload=None):
    """``run_experiment``'s build, thread names, body factory and
    finalize for ``runtime="mp"``.

    One worker process per ``config.n_processors`` (``n_threads`` is
    ignored — a process *is* the unit of concurrency here), each
    performing ``target_accesses / n_workers`` page accesses against
    the shared frame table. The finalize returns a
    :class:`~repro.harness.experiment.RunResult` whose times are
    wall-clock; where a field means something else here than on
    sim/native, the field's comment says what.
    """
    table: Optional[FrameTable] = None

    def build(run) -> None:
        """Lay out and pre-warm the frame table the workers will share."""
        nonlocal workload, table
        from repro.harness.driver import access_ordered_prefix
        from repro.workloads.registry import make_workload

        if workload is None:
            workload = make_workload(config.workload, seed=config.seed,
                                     **config.workload_kwargs)
        working_set = workload.working_set_pages()
        # Deterministic dense page ids: access order first (the resident
        # prefix when the pool is smaller than the working set), then any
        # remaining working-set pages in sorted-repr order.
        ordered = list(access_ordered_prefix(workload, len(working_set)))
        seen = set(ordered)
        ordered.extend(sorted((p for p in working_set if p not in seen),
                              key=repr))
        table = FrameTable(ordered, config.resolved_buffer_pages(workload),
                           config.n_processors, config.queue_size,
                           config.prewarm)

    def body(run, thread: MpThread, index: int):
        return _worker_body(config, table, workload, thread, index,
                            metrics=run.observer is not None)

    names = [f"mp-worker-{index}" for index in range(config.n_processors)]
    return build, names, body, lambda run: _fold(config, run)


def _worker_body(config, pool: FrameTable, workload, thread: MpThread,
                 worker_index: int, metrics: bool):
    """One worker process: closed transaction loop over the shared pool.

    A generator for the driver's sake: its one blocking call, the start
    barrier, returns ``()``. It returns the worker's report.
    """
    system = config.system
    lock_metric = f"lock.replacement-{system}"
    registry = access_hist = wait_hist = hold_hist = None
    if metrics:
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        access_hist = registry.histogram("mp.access_us")
        wait_hist = registry.histogram(f"{lock_metric}.wait_us")
        hold_hist = registry.histogram(f"{lock_metric}.hold_us")

    capacity = pool.capacity
    queue_size = config.queue_size
    threshold = config.batch_threshold
    quota = max(1, config.target_accesses // config.n_processors)
    warmup_quota = int(quota * config.warmup_fraction)
    page_index: Dict[Any, int] = pool.page_index
    mem, glock = pool.mem, pool.glock
    batched = system in ("pgBat", "pgBatPre")
    prefetch = system == "pgBatPre"
    clock = system == "pgclock"
    lay = pool.lay
    fbase = lay["frames"]
    pmap = lay["page_map"]
    qbase = lay["queues"] + worker_index * lay["queue_words"]

    stream = workload.transaction_stream(worker_index)

    iters_per_us = _calibrate_spin()
    work_iters = int(iters_per_us * _DEFAULT_WORK_US)

    perf = time.perf_counter
    stats = {
        "accesses": 0, "hits": 0, "misses": 0, "transactions": 0,
        "requests": 0, "contentions": 0, "acquisitions": 0,
        "try_attempts": 0, "try_failures": 0,
        "total_wait_us": 0.0, "total_hold_us": 0.0, "window_max_hold_us": 0.0,
        "commits": 0, "committed_entries": 0, "stale": 0, "prefetches": 0,
        "response_us": 0.0, "response_n": 0,
    }
    samples: List[float] = []
    snapshot: Dict[str, Any] = {}
    started_cpu = time.process_time()

    def lock_blocking() -> float:
        """Blocking replacement-lock acquire; returns the grant time."""
        stats["requests"] += 1
        if glock.acquire(block=False):
            stats["acquisitions"] += 1
            return perf()
        stats["contentions"] += 1
        blocked = perf()
        glock.acquire()
        granted = perf()
        wait = (granted - blocked) * 1e6
        stats["total_wait_us"] += wait
        if wait_hist is not None:
            wait_hist.record(wait)
        stats["acquisitions"] += 1
        return granted

    def lock_release(granted: float) -> None:
        hold = (perf() - granted) * 1e6
        stats["total_hold_us"] += hold
        if hold > stats["window_max_hold_us"]:
            stats["window_max_hold_us"] = hold
        if hold_hist is not None:
            hold_hist.record(hold)
        glock.release()

    def commit_locked() -> None:
        """Drain this worker's shm queue into the LRU list (lock held)."""
        count = mem[qbase]
        committed = stale = 0
        for slot in range(count):
            frame = mem[qbase + 1 + 2 * slot]
            gen = mem[qbase + 2 + 2 * slot]
            if mem[fbase + frame * FRAME_WORDS + F_GEN] == gen:
                pool.lru_move_front(frame)
                committed += 1
            else:
                stale += 1
        mem[qbase] = 0
        stats["commits"] += 1
        stats["committed_entries"] += committed
        stats["stale"] += stale

    def miss(tag: int) -> None:
        stats["misses"] += 1
        granted = lock_blocking()
        try:
            if batched and mem[qbase]:
                commit_locked()   # Fig. 4: history ahead of the miss
            frame = mem[pmap + tag]
            if (0 <= frame < capacity
                    and mem[fbase + frame * FRAME_WORDS + F_TAG] == tag):
                # Absorbed: another worker installed it while we waited.
                stats["misses"] -= 1
                stats["hits"] += 1
                if not clock:
                    pool.lru_move_front(frame)
                return
            for _attempt in range(2 * capacity + 1):
                victim = pool.evict_clock() if clock else pool.evict_lru()
                if pool.retag(victim, tag):
                    if not clock:
                        pool.lru_push_front(victim)
                    break
                if not clock:
                    # A racing hit pinned the victim after the scan's
                    # probe: it is demonstrably hot — relink at MRU.
                    pool.lru_push_front(victim)
            else:
                raise SimulationError(
                    "mp pool: could not find an unpinned victim")
        finally:
            lock_release(granted)

    def access(tag: int) -> bool:
        stats["accesses"] += 1
        frame = mem[pmap + tag]
        pinned = False
        if 0 <= frame < capacity:
            off = fbase + frame * FRAME_WORDS
            with pool.stripe(frame):
                if mem[off + F_TAG] == tag:
                    mem[off + F_PIN] += 1
                    pinned = True
        if not pinned:
            miss(tag)
            return False
        stats["hits"] += 1
        off = fbase + frame * FRAME_WORDS
        try:
            if clock:
                mem[off + F_REF] = 1      # lock-free single-word store
            elif batched:
                count = mem[qbase]
                mem[qbase + 1 + 2 * count] = frame
                mem[qbase + 2 + 2 * count] = mem[off + F_GEN]
                mem[qbase] = count + 1
            else:
                granted = lock_blocking()
                try:
                    if mem[off + F_TAG] == tag:
                        pool.lru_move_front(frame)
                finally:
                    lock_release(granted)
        finally:
            with pool.stripe(frame):
                mem[off + F_PIN] -= 1
        if batched and mem[qbase] >= threshold:
            stats["try_attempts"] += 1
            if glock.acquire(block=False):              # Fig. 4 line 8
                stats["requests"] += 1
                stats["acquisitions"] += 1
                granted = perf()
            elif mem[qbase] < queue_size:               # lines 10-12
                stats["try_failures"] += 1
                return True
            else:
                stats["try_failures"] += 1
                granted = lock_blocking()               # line 13
            if prefetch:
                # Pull the queued frames' words toward this core
                # before the serialized section mutates them.
                touched = 0
                for slot in range(mem[qbase]):
                    touched += mem[fbase + mem[qbase + 1 + 2 * slot]
                                   * FRAME_WORDS + F_GEN]
                stats["prefetches"] += 1
            try:
                commit_locked()                          # lines 15-17
            finally:
                lock_release(granted)                    # line 18
        return True

    yield from thread.barrier()
    run_started = perf()
    if warmup_quota <= 0:
        snapshot = _begin_window(stats)
    while stats["accesses"] < quota:
        txn = next(stream)
        txn_started = perf()
        for page in txn.pages:
            i = 0
            while i < work_iters:
                i += 1
            if access_hist is not None:
                access_started = perf()
                access(page_index[page])
                access_hist.record((perf() - access_started) * 1e6)
            else:
                access(page_index[page])
            if (not snapshot and stats["accesses"] >= warmup_quota):
                snapshot = _begin_window(stats)
        response = (perf() - txn_started) * 1e6
        stats["transactions"] += 1
        stats["response_us"] += response
        stats["response_n"] += 1
        # Sampled from the warm-up snapshot on, like the windowed
        # ``response_us``/``transactions`` the p95 is reported beside.
        if snapshot and len(samples) < _SAMPLE_CAP:
            samples.append(response)
    if batched and mem[qbase]:
        granted = lock_blocking()
        try:
            commit_locked()
        finally:
            lock_release(granted)
    finished = perf()
    if not snapshot:
        snapshot = _begin_window(stats)
    if registry is not None:
        registry.counter("mp.workers").inc()
        registry.counter("mp.transactions").inc(stats["transactions"])
        registry.counter(f"{lock_metric}.contentions").inc(
            stats["contentions"])
        registry.gauge(f"{lock_metric}.max_hold_us").set(
            max(snapshot["window_max_hold_us"], stats["window_max_hold_us"]))
    # The report speaks the in-process runtimes' vocabulary: windowed stats
    # classes, and the queue's whole-run accounting as an AccessQueue.
    access, lock = _window(stats, snapshot)
    queue = AccessQueue(queue_size)
    queue.commits = stats["commits"]
    queue.total_stale = stats["stale"]
    queue.total_drained = stats["committed_entries"] + stats["stale"]
    return {
        "access": access, "lock": lock, "queue": queue, "samples": samples,
        "total_accesses": stats["accesses"],
        "total_transactions": stats["transactions"],
        "transactions": stats["transactions"] - snapshot["transactions"],
        "response_us": stats["response_us"] - snapshot["response_us"],
        "prefetches": stats["prefetches"],
        "window_us": max((finished - snapshot["at"]) * 1e6, 0.0),
        "warmup_offset_us": (snapshot["at"] - run_started) * 1e6,
        "cpu_s": time.process_time() - started_cpu,
        "metrics": registry.snapshot() if registry is not None else None,
    }


def _begin_window(stats: Dict[str, Any]) -> Dict[str, Any]:
    """Snapshot a worker's counters where (and ``at`` when) its warm-up
    ends, restarting the hold maximum as ``LockStats.begin_window``."""
    snapshot = dict(stats, at=time.perf_counter())
    stats["window_max_hold_us"] = 0.0
    return snapshot


def _window(stats: Dict[str, Any], snapshot: Dict[str, Any]):
    """The counters since ``snapshot`` as the (AccessStats, LockStats) pair
    the in-process runtimes keep: the dict's keys are their field names."""
    def counters(cls, source):
        return cls(**{f.name: source[f.name] for f in fields(cls)
                      if f.name in source})
    return tuple(counters(cls, stats).delta_since(counters(cls, snapshot))
                 for cls in (AccessStats, LockStats))


def _fold(config, run):
    """The workers' reports, in worker-index order, as the run's
    RunResult, through the ``assemble`` every runtime's record is built
    by (their registry snapshots are merged into the observer's first);
    rates and responses are the mp meanings written on the RunResult
    fields."""
    from repro.harness.experiment import assemble

    workers = [thread.result for thread in run.threads]
    if run.observer is not None:
        for worker in workers:
            run.observer.metrics.merge_snapshot(worker["metrics"])
    elapsed_us = run.elapsed_us

    def summed(key: str):
        return sum(worker[key] for worker in workers)

    access, lock = AccessStats(), LockStats()
    for worker in workers:
        access = access.merged_with(worker["access"])
        lock = lock.merged_with(worker["lock"])
    transactions = summed("transactions")
    samples = sorted(s for worker in workers for s in worker["samples"])
    return assemble(
        config, AccessStats(accesses=summed("total_accesses")), access, lock,
        [worker["queue"] for worker in workers],
        throughput_tps=sum(
            worker["transactions"] / (worker["window_us"] / 1e6)
            for worker in workers if worker["window_us"] > 0),
        mean_response_ms=(summed("response_us") / transactions / 1000.0
                          if transactions else 0.0),
        p95_response_ms=nearest_rank(samples, 95.0) / 1000.0,
        transactions=transactions,
        elapsed_us=elapsed_us,
        cpu_utilization=(summed("cpu_s") / (elapsed_us / 1e6 * len(workers))
                         if elapsed_us > 0 else 0.0),
        prefetches_issued=summed("prefetches"),
        total_transactions=summed("total_transactions"),
        warmup_end_us=max(worker["warmup_offset_us"] for worker in workers),
        metrics=run.metrics())
