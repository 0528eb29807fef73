"""``mp`` backend: true multi-core wall-clock scaling via processes.

Stock CPython serializes OS threads with the GIL, so the ``native``
backend's wall-clock numbers measure lock *protocol* costs but not
multi-core *scaling* — at most one thread executes Python at a time.
This backend gets genuine parallelism the way PostgreSQL itself does:
worker **processes** operating on a buffer-pool frame table that lives
in :mod:`multiprocessing.shared_memory`, synchronized with real
futex-backed OS locks (``multiprocessing.Lock`` — a POSIX semaphore on
Linux). It exists to reproduce the paper's Fig. 6/7 in wall-clock
time: pg2Q's throughput collapses as workers are added while pgBat /
pgBatPre keep scaling (see ``benchmarks/bench_scaling.py``).

Shared-memory layout
--------------------
One shm segment of little-endian int64 words (``memoryview.cast("q")``
— every field is one aligned 8-byte word, so a store is a single
indivisible write on the architectures we run on):

=========  =============================================================
region     contents
=========  =============================================================
header     ``HDR_WORDS`` words: LRU head/tail, resident count,
           eviction counter, clock hand
page map   one word per page: frame index holding it, or -1
           (the dense-page-space stand-in for the buffer hash table;
           probes are lock-free, every probe is revalidated against
           the frame's tag afterwards)
frames     ``FRAME_WORDS`` fixed-width words per frame: tag,
           generation, pin count, reference bit, LRU prev/next links
queues     per-worker BP-Wrapper FIFO queue: a count word plus
           ``queue_size`` fixed-width (frame, generation) slot pairs —
           private to the owning worker, exactly as the paper's
           per-thread queues, but resident in shm as they would be in
           PostgreSQL shared memory
=========  =============================================================

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
latency, ``mp.lock.replacement.wait_us``/``hold_us``, worker counters),
writes its snapshot to a per-worker JSON file at exit, and the parent
folds the files in worker-index order into the caller's registry via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` — the merged
``mp.access_us`` count equals the run's total access count.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import fields
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional

from repro.bufmgr.manager import AccessStats
from repro.control.state import bp_kwargs
from repro.core.fifoqueue import AccessQueue
from repro.errors import ConfigError, SimulationError
from repro.sync.stats import LockStats
from repro.util import nearest_rank

__all__ = [
    "FRAME_WORDS",
    "HDR_WORDS",
    "HEADER_LOCK_STRIPES",
    "MP_SYSTEMS",
    "run_mp_experiment",
]

#: Systems with an mp hot-path implementation (Table I's contenders).
MP_SYSTEMS = ("pgclock", "pg2Q", "pgBat", "pgBatPre")

#: Header words: LRU head, LRU tail, resident count, evictions, clock
#: hand (+3 reserved).
HDR_WORDS = 8
H_LRU_HEAD, H_LRU_TAIL, H_RESIDENT, H_EVICTIONS, H_CLOCK_HAND = range(5)

#: Fixed-width frame struct: tag (page index, -1 empty), generation
#: (bumped on retag), pin count, reference bit, LRU prev, LRU next.
FRAME_WORDS = 6
F_TAG, F_GEN, F_PIN, F_REF, F_PREV, F_NEXT = range(FRAME_WORDS)

#: Frame header locks are striped: ``frame % HEADER_LOCK_STRIPES``.
HEADER_LOCK_STRIPES = 64

#: Per-worker response-time reservoir size (p95 estimation).
_SAMPLE_CAP = 2000

#: Busy-spin "user work" per page access, microseconds. Small by
#: design: the scaling benchmark wants the lock path to be a visible
#: fraction of an access so contention separates the systems within
#: CI-sized runs (the paper's 50 us user work would need millions of
#: accesses per cell for the same resolution).
_DEFAULT_WORK_US = 2.0


# -- shared-memory geometry -------------------------------------------------


def _layout(n_pages: int, capacity: int, n_workers: int,
            queue_size: int) -> Dict[str, int]:
    """Word offsets of every region in the shm segment."""
    page_map = HDR_WORDS
    frames = page_map + n_pages
    queues = frames + capacity * FRAME_WORDS
    queue_words = 1 + 2 * queue_size
    total = queues + n_workers * queue_words
    return {"page_map": page_map, "frames": frames, "queues": queues,
            "queue_words": queue_words, "total": total}


def _attach(shm_name: str, own_tracker: bool):
    """Attach to the segment; return (shm, int64 memoryview).

    ``own_tracker`` is True under the spawn start method, where the
    child runs its *own* resource tracker: attaching registers the
    segment there (bpo-39959) and it must be unregistered by hand or
    the tracker "cleans up" a segment the parent still owns at child
    exit. Under fork the tracker is shared with the parent — the
    duplicate registration is idempotent and unregistering here would
    steal the parent's, making its ``unlink()`` double-unregister.
    """
    shm = shared_memory.SharedMemory(name=shm_name)
    if own_tracker:
        try:
            # Python < 3.13 has no track=False for attachments, so
            # unregister by hand (private but stable API).
            from multiprocessing import resource_tracker
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm, shm.buf.cast("q")


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


class _Pool:
    """One worker's view of the shared frame table."""

    __slots__ = ("mem", "lay", "capacity", "n_pages", "glock", "stripes",
                 "qbase", "queue_size")

    def __init__(self, mem, lay, capacity, n_pages, glock, stripes,
                 worker_index, queue_size):
        self.mem = mem
        self.lay = lay
        self.capacity = capacity
        self.n_pages = n_pages
        self.glock = glock
        self.stripes = stripes
        self.qbase = lay["queues"] + worker_index * lay["queue_words"]
        self.queue_size = queue_size

    # frame-word accessors (hot path: inlined offsets, no helpers)

    def stripe(self, frame: int):
        return self.stripes[frame % len(self.stripes)]

    # -- LRU list surgery (global lock must be held) --------------------

    def lru_unlink(self, frame: int) -> None:
        mem, base = self.mem, self.lay["frames"]
        off = base + frame * FRAME_WORDS
        prev, nxt = mem[off + F_PREV], mem[off + F_NEXT]
        if prev >= 0:
            mem[base + prev * FRAME_WORDS + F_NEXT] = nxt
        else:
            mem[H_LRU_HEAD] = nxt
        if nxt >= 0:
            mem[base + nxt * FRAME_WORDS + F_PREV] = prev
        else:
            mem[H_LRU_TAIL] = prev
        mem[off + F_PREV] = -1
        mem[off + F_NEXT] = -1

    def lru_push_front(self, frame: int) -> None:
        mem, base = self.mem, self.lay["frames"]
        off = base + frame * FRAME_WORDS
        head = mem[H_LRU_HEAD]
        mem[off + F_PREV] = -1
        mem[off + F_NEXT] = head
        if head >= 0:
            mem[base + head * FRAME_WORDS + F_PREV] = frame
        else:
            mem[H_LRU_TAIL] = frame
        mem[H_LRU_HEAD] = frame

    def lru_move_front(self, frame: int) -> None:
        if self.mem[H_LRU_HEAD] == frame:
            return
        self.lru_unlink(frame)
        self.lru_push_front(frame)

    # -- eviction (global lock must be held) ----------------------------

    def evict_lru(self) -> int:
        """Unlink and return the coldest unpinned frame (LRU tail)."""
        mem, base = self.mem, self.lay["frames"]
        frame = mem[H_LRU_TAIL]
        while frame >= 0:
            if mem[base + frame * FRAME_WORDS + F_PIN] == 0:
                self.lru_unlink(frame)
                return frame
            frame = mem[base + frame * FRAME_WORDS + F_PREV]
        raise SimulationError("mp pool: every frame is pinned")

    def evict_clock(self) -> int:
        """CLOCK sweep: clear reference bits until a clear one is found."""
        mem, base, cap = self.mem, self.lay["frames"], self.capacity
        hand = mem[H_CLOCK_HAND]
        for _step in range(2 * cap + 1):
            off = base + hand * FRAME_WORDS
            if mem[off + F_PIN] != 0:
                hand = (hand + 1) % cap
                continue
            if mem[off + F_REF]:
                mem[off + F_REF] = 0
                hand = (hand + 1) % cap
                continue
            mem[H_CLOCK_HAND] = (hand + 1) % cap
            return hand
        raise SimulationError("mp pool: clock swept twice, all pinned")

    def retag(self, frame: int, tag: int) -> bool:
        """Point ``frame`` at ``tag`` (global lock held; header-locked).

        Returns ``False`` without touching the frame if a racing hit
        pinned it between the eviction scan's unlocked pin probe and
        this header-locked recheck — the caller must pick another
        victim. This is the authoritative pin check; the scan's probe
        is only a filter.
        """
        mem = self.mem
        off = self.lay["frames"] + frame * FRAME_WORDS
        pmap = self.lay["page_map"]
        with self.stripe(frame):
            if mem[off + F_PIN] != 0:
                return False
            old = mem[off + F_TAG]
            if old >= 0:
                mem[pmap + old] = -1
                mem[H_EVICTIONS] += 1
            else:
                mem[H_RESIDENT] += 1
            mem[off + F_GEN] += 1
            mem[off + F_TAG] = tag
            mem[off + F_REF] = 1
            mem[pmap + tag] = frame
            return True


def _worker_main(spec: Dict[str, Any], shm_name: str, glock, stripes,
                 barrier, out_queue, worker_index: int) -> None:
    """One worker process: closed transaction loop over the shared pool."""
    shm = mem = None
    try:
        shm, mem = _attach(shm_name,
                           own_tracker=spec["start_method"] != "fork")
        result = _worker_body(spec, mem, glock, stripes, barrier,
                              worker_index)
        out_queue.put((worker_index, "ok", result))
    except Exception:
        out_queue.put((worker_index, "error", traceback.format_exc()))
    finally:
        # The cast view must go before close() or mmap raises
        # BufferError; either way the OS reclaims at process exit.
        if mem is not None:
            try:
                mem.release()
            except Exception:
                pass
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass


def _worker_body(spec: Dict[str, Any], mem, glock, stripes, barrier,
                 worker_index: int) -> Dict[str, Any]:
    from repro.workloads.registry import make_workload

    metrics_dir = spec.get("metrics_dir")
    registry = access_hist = wait_hist = hold_hist = None
    if metrics_dir:
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        access_hist = registry.histogram("mp.access_us")
        wait_hist = registry.histogram("mp.lock.replacement.wait_us")
        hold_hist = registry.histogram("mp.lock.replacement.hold_us")

    system = spec["system"]
    capacity = spec["capacity"]
    n_pages = spec["n_pages"]
    queue_size = spec["queue_size"]
    threshold = spec["batch_threshold"]
    quota = spec["accesses_per_worker"]
    warmup_quota = spec["warmup_per_worker"]
    page_index: Dict[Any, int] = spec["page_index"]
    lay = _layout(n_pages, capacity, spec["n_workers"], queue_size)
    pool = _Pool(mem, lay, capacity, n_pages, glock, stripes,
                 worker_index, queue_size)
    batched = system in ("pgBat", "pgBatPre")
    prefetch = system == "pgBatPre"
    clock = system == "pgclock"
    fbase = lay["frames"]
    pmap = lay["page_map"]
    qbase = pool.qbase

    workload = make_workload(spec["workload"], seed=spec["seed"],
                             **spec["workload_kwargs"])
    stream = workload.transaction_stream(worker_index)

    iters_per_us = _calibrate_spin()
    work_iters = int(iters_per_us * spec["work_us"])

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

    barrier.wait(timeout=spec["barrier_timeout_s"])
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
        # Per-worker snapshot file: the parent folds these in
        # worker-index order via MetricsRegistry.merge_snapshot.
        import json
        registry.counter("mp.workers").inc()
        registry.counter("mp.transactions").inc(stats["transactions"])
        registry.counter("mp.lock.replacement.contentions").inc(
            stats["contentions"])
        registry.gauge("mp.lock.replacement.max_hold_us").set(
            max(snapshot["window_max_hold_us"], stats["window_max_hold_us"]))
        path = os.path.join(metrics_dir,
                            f"worker-{worker_index:03d}.json")
        with open(path, "w") as handle:
            json.dump(registry.snapshot(), handle, sort_keys=True)
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


# -- the parent-side runner -------------------------------------------------


def _validate(config) -> None:
    if config.system not in MP_SYSTEMS:
        raise ConfigError(
            f"system {config.system!r} has no mp hot path; available: "
            f"{', '.join(MP_SYSTEMS)}")
    if config.policy_name not in (None, "2q", "lru", "clock"):
        raise ConfigError(
            "the mp backend's shared policy core is a fixed LRU list "
            "(clock for pgclock); policy_name cannot be swapped")
    if config.controller:
        raise ConfigError(
            "controllers are not supported on the mp backend: "
            "workers read the batching knobs from a shared-memory "
            "spec fixed at fork time")
    if config.use_disk or config.background_writer:
        raise ConfigError(
            "the mp backend is the in-memory scaling engine; disk and "
            "bgwriter parity live in runtime='native'")
    if config.simulate_bucket_locks:
        raise ConfigError(
            "bucket-lock simulation is a simulator ablation; the mp "
            "page map is probed lock-free")


def run_mp_experiment(config, workload=None, observer=None):
    """Execute ``config`` on worker processes (``runtime="mp"``).

    One worker process per ``config.n_processors`` (``n_threads`` is
    ignored — a process *is* the unit of concurrency here), each
    performing ``target_accesses / n_workers`` page accesses against
    the shared frame table. Returns a
    :class:`~repro.harness.experiment.RunResult` whose times are
    wall-clock; where a field means something else here than on
    sim/native, the field's comment says what.
    """
    from repro.harness.driver import access_ordered_prefix
    from repro.workloads.registry import make_workload

    if observer is not None:
        if (getattr(observer, "trace", None) is not None
                or getattr(observer, "metrics", None) is None):
            raise ConfigError(
                "the observability layer's trace recorder records "
                "in-process; mp workers cannot share it — attach a "
                "metrics-only Observer (metrics=..., trace=None) to "
                "collect merged per-worker registry snapshots, or use "
                "runtime='sim' or 'native' for traces")
    _validate(config)
    if workload is None:
        workload = make_workload(config.workload, seed=config.seed,
                                 **config.workload_kwargs)
    n_workers = config.n_processors
    if n_workers < 1:
        raise ConfigError(f"need >= 1 worker, got {n_workers}")

    working_set = workload.working_set_pages()
    capacity = config.resolved_buffer_pages(workload)
    # Deterministic dense page ids: access order first (the resident
    # prefix when the pool is smaller than the working set), then any
    # remaining working-set pages in sorted-repr order.
    ordered = list(access_ordered_prefix(workload, len(working_set)))
    seen = set(ordered)
    ordered.extend(sorted((p for p in working_set if p not in seen),
                          key=repr))
    page_index = {page: i for i, page in enumerate(ordered)}
    n_pages = len(ordered)

    lay = _layout(n_pages, capacity, n_workers, config.queue_size)
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")
    shm = shared_memory.SharedMemory(create=True,
                                     size=max(lay["total"], 1) * 8)
    metrics_dir = None
    if observer is not None:
        import tempfile
        metrics_dir = tempfile.mkdtemp(prefix="repro-mp-metrics-")
    processes: List[Any] = []
    mem = None
    try:
        mem = shm.buf.cast("q")
        for word in range(lay["total"]):
            mem[word] = 0
        mem[H_LRU_HEAD] = -1
        mem[H_LRU_TAIL] = -1
        for word in range(n_pages):
            mem[lay["page_map"] + word] = -1
        for frame in range(capacity):
            off = lay["frames"] + frame * FRAME_WORDS
            mem[off + F_TAG] = -1
            mem[off + F_PREV] = -1
            mem[off + F_NEXT] = -1
        if config.prewarm:
            _prewarm(mem, lay, ordered, page_index, capacity)

        glock = ctx.Lock()
        stripes = [ctx.Lock()
                   for _ in range(min(HEADER_LOCK_STRIPES, capacity))]
        barrier = ctx.Barrier(n_workers + 1)
        out_queue = ctx.Queue()
        deadline_s = config.max_sim_time_us / 1_000_000.0
        quota = max(1, config.target_accesses // n_workers)
        spec = {
            "system": config.system,
            "workload": config.workload,
            "workload_kwargs": dict(config.workload_kwargs),
            "seed": config.seed,
            "capacity": capacity,
            "n_pages": n_pages,
            "n_workers": n_workers,
            # The shared bp_kwargs plumbing path; workers read these
            # from the spec, fixed at fork time (no controllers here).
            **bp_kwargs(config, include_policy=False),
            "accesses_per_worker": quota,
            "warmup_per_worker": int(quota * config.warmup_fraction),
            "page_index": page_index,
            "work_us": _DEFAULT_WORK_US,
            "barrier_timeout_s": min(60.0, deadline_s),
            "start_method": ctx.get_start_method(),
            "metrics_dir": metrics_dir,
        }
        for index in range(n_workers):
            process = ctx.Process(
                target=_worker_main,
                args=(spec, shm.name, glock, stripes, barrier, out_queue,
                      index),
                name=f"mp-worker-{index}", daemon=True)
            process.start()
            processes.append(process)
        try:
            barrier.wait(timeout=spec["barrier_timeout_s"])
        except Exception:
            raise SimulationError(
                "mp workers failed to reach the start barrier "
                f"(exit codes: {[p.exitcode for p in processes]})")
        run_started = time.perf_counter()
        results: Dict[int, Dict[str, Any]] = {}
        deadline = run_started + deadline_s
        for _ in range(n_workers):
            remaining = deadline - time.perf_counter()
            try:
                index, status, payload = out_queue.get(
                    timeout=max(0.1, remaining))
            except Exception:
                raise SimulationError(
                    f"mp run exceeded its {deadline_s:.0f}s wall "
                    f"budget with {n_workers - len(results)} worker(s) "
                    "still running (possible deadlock)")
            if status != "ok":
                raise SimulationError(
                    f"mp worker {index} failed:\n{payload}")
            results[index] = payload
        elapsed_us = (time.perf_counter() - run_started) * 1e6
        metrics = None
        if metrics_dir is not None:
            # Workers write their snapshot file before posting their
            # result, so all files exist once the loop above drained.
            _merge_worker_metrics(observer.metrics, metrics_dir,
                                  n_workers)
            metrics = observer.metrics.snapshot()
        for process in processes:
            process.join(timeout=10.0)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        if mem is not None:
            try:
                mem.release()
            except Exception:
                pass
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
        if metrics_dir is not None:
            import shutil
            shutil.rmtree(metrics_dir, ignore_errors=True)

    return _fold(config, list(results.values()), elapsed_us, metrics)


def _merge_worker_metrics(registry, metrics_dir: str,
                          n_workers: int) -> None:
    """Fold per-worker snapshot files into ``registry``, index order.

    Counters add, histograms merge bucket-wise, gauges widen —
    :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` is
    order-independent, but reading in worker-index order keeps the
    procedure (and any failure message) deterministic.
    """
    import json

    for index in range(n_workers):
        path = os.path.join(metrics_dir, f"worker-{index:03d}.json")
        if not os.path.exists(path):
            raise SimulationError(
                f"mp worker {index} wrote no metrics snapshot "
                f"({path} missing)")
        with open(path) as handle:
            registry.merge_snapshot(json.load(handle))


def _prewarm(mem, lay, ordered, page_index, capacity) -> None:
    """Install the access-ordered resident prefix (no stats recorded)."""
    pool = _Pool(mem, lay, capacity, len(ordered), None, (), 0, 0)
    for frame, page in enumerate(ordered[:capacity]):
        off = lay["frames"] + frame * FRAME_WORDS
        tag = page_index[page]
        mem[off + F_TAG] = tag
        mem[off + F_REF] = 1
        mem[lay["page_map"] + tag] = frame
        mem[H_RESIDENT] += 1
        # Push-front in order: the last-installed page ends up MRU.
        pool.lru_push_front(frame)


def _fold(config, workers: List[Dict[str, Any]], elapsed_us: float,
          metrics: Optional[dict]):
    """The workers' reports as the run's RunResult, through the
    ``assemble`` every runtime's record is built by; rates and
    responses are the mp meanings written on the RunResult fields."""
    from repro.harness.experiment import assemble

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
        metrics=metrics)
