"""Layer-alone microbenchmarks: each ``src/repro/`` layer driven by
itself, on public callables, so a win or a regression can be attributed.

Every microbenchmark grows its batch until one batch takes ``min_s``
seconds, then reports the best of ``repeats`` batches. Bodies written for
the blocking-generator protocol run on the native runtime, driven inline
with :func:`repro.runtime.drive`.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import subprocess
import sys
import time
from typing import Callable, Dict, Iterator, Tuple

from hostspeed import Yardstick

import repro
from repro import (ALTIX_350, ExperimentConfig, PageId, Simulator,
                   available_policies, build_system, make_policy,
                   make_workload, run_experiment)
from repro.bufmgr import BufferDesc, BufferHashTable
from repro.check import CorrectnessChecker
from repro.core import AccessQueue, ThreadSlot
from repro.db import DiskArray
from repro.db.exec import TraceExecContext, drain_plan
from repro.hardware import MetadataCacheModel
from repro.harness.dashboard import render_serve_page
from repro.harness.parallel import run_many
from repro.obs import MetricsRegistry, Observer, TraceRecorder
from repro.runtime import drive
from repro.runtime.native import NativeRuntime
from repro.serve import (ServeConfig, TenantSpec, TenantState, TokenBucket,
                         serve_grid)
from repro.simcore import CpuBoundThread, ProcessorPool
from repro.workloads import SyntheticTrace

__all__ = ["microbenchmarks", "run_all"]

_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])
_DBT2 = {"n_warehouses": 10}
_SYSTEMS = ("pg2Q", "pgBatPre", "pgclock")
_GENERATORS = ("dbt1", "dbt2", "tablescan", "tpcc_lite")


class _Clock:
    """Sizes and times batches, at the reference host speed.

    Each result is scaled by the host's speed index over the kernel
    runs on either side of it (see ``hostspeed.py``).
    """

    def __init__(self, min_s: float, repeats: int) -> None:
        self.min_s = min_s
        self.repeats = repeats
        self.yard = Yardstick()
        self.yard.sample()

    def _speed(self) -> float:
        self.yard.sample()
        return self.yard.speed(last=4)

    def rate(self, batch: Callable[[int], float], units: int = 256) -> float:
        """Best units per second; ``batch(n)`` does ``n`` units and
        returns the seconds they took."""
        while True:
            spent = batch(units)
            if spent >= self.min_s:
                break
            # At most eightfold a step: a cold start can cost less per
            # unit than the steady state (a policy before its first
            # eviction), and one big jump would overshoot by as much.
            units = int(units * min(8.0, max(
                2.0, 1.2 * self.min_s / max(spent, 1e-6))))
        best = min([spent] + [batch(units)
                              for _ in range(self.repeats - 1)])
        return units / best / self._speed()

    def best(self, once: Callable[[], float]) -> float:
        """Best seconds of ``repeats`` calls of ``once() -> seconds``."""
        best = min(once() for _ in range(self.repeats))
        return best * self._speed()


def _timed(body: Callable[[], object]) -> float:
    started = time.perf_counter()
    body()
    return time.perf_counter() - started


def _start_threads(sim: Simulator, n_threads: int, n_processors: int,
                   make_body) -> None:
    """Start ``n_threads`` bodies (``make_body(thread)``) on ``sim``."""
    pool = ProcessorPool(sim, n_processors, context_switch_us=5.0)
    for index in range(n_threads):
        thread = CpuBoundThread(pool, name=f"w{index}")
        thread.start(make_body(thread))


def microbenchmarks(clock: _Clock, seed: int, smoke: bool
                    ) -> Iterator[Tuple[str, Callable[[], float]]]:
    """(metric name, thunk computing its value), in reporting order."""

    # -- simcore / sync ------------------------------------------------------
    events_per_loop = []

    def engine(n: int) -> float:
        def body(thread):
            for _ in range(n):
                thread.charge(1.0)
                yield from thread.spend()
                yield from thread.maybe_yield(250.0)
        sim = Simulator()
        _start_threads(sim, 8, 4, body)
        spent = _timed(sim.run)
        events_per_loop[:] = [sim.events_processed / n]
        return spent

    # Batches are sized in loop turns; the engine counts the events.
    yield ("simcore.events_per_s",
           lambda: clock.rate(engine, 64) * events_per_loop[0])

    def simlock(n_threads: int, hold_us: float) -> Callable[[int], float]:
        def batch(n: int) -> float:
            def body(thread):
                for _ in range(n // n_threads):
                    yield from lock.acquire(thread)
                    if hold_us:
                        yield from thread.run_for(hold_us)
                    lock.release(thread)
            sim = Simulator()
            lock = sim.create_lock(name="ledger", grant_cost_us=0.1,
                                   try_cost_us=0.05)
            _start_threads(sim, n_threads, n_threads, body)
            return _timed(sim.run)
        return batch

    yield "sync.simlock_pairs_per_s", lambda: clock.rate(simlock(1, 0.0))
    # Four threads holding the lock for 1 us each: every acquire queues.
    yield "sync.simlock_handoffs_per_s", lambda: clock.rate(simlock(4, 1.0))

    def native_lock(n: int) -> float:
        runtime = NativeRuntime()
        lock = runtime.create_lock(name="ledger")
        thread = runtime.create_thread(runtime.create_pool(1))

        def body():
            for _ in range(n):
                yield from lock.acquire(thread)
                lock.release(thread)
        return _timed(lambda: drive(body()))

    yield "runtime.native.lock_pairs_per_s", lambda: clock.rate(native_lock)

    # -- bufmgr / core -------------------------------------------------------
    pages = [PageId("t", block) for block in range(4000)]

    def probes(n: int) -> float:
        table = BufferHashTable(Simulator(), n_buckets=1024)
        for index, page in enumerate(pages):
            table.insert(page, BufferDesc(index))
        lookup = table.lookup
        wanted = list(itertools.islice(itertools.cycle(pages), n))
        return _timed(lambda: [lookup(page) for page in wanted])

    yield "bufmgr.hashtable_probes_per_s", lambda: clock.rate(probes)

    def access_us(system: str, capacity: int, stream) -> float:
        def batch(n: int) -> float:
            runtime = NativeRuntime()
            manager = build_system(system, runtime, capacity,
                                   ALTIX_350).manager
            slot = ThreadSlot(runtime.create_thread(runtime.create_pool(1)),
                              0, queue_size=64)
            # The tail of the stream: a pool smaller than the stream has
            # evicted it again by the time the cyclic scan gets there.
            manager.warm_with(stream[-capacity:])
            wanted = list(itertools.islice(itertools.cycle(stream), n))

            def body():
                for page in wanted:
                    yield from manager.access(slot, page)
            return _timed(lambda: drive(body()))
        return 1e6 / clock.rate(batch)

    for system in _SYSTEMS:
        yield (f"bufmgr.hit_us.{system}",
               lambda system=system: access_us(system, 4064, pages))
    # A cyclic scan four times the pool: every access misses and evicts.
    yield "bufmgr.miss_us", lambda: access_us("pgBatPre", 256, pages[:1024])

    def queue(n: int) -> float:
        entries = [(BufferDesc(i), pages[i]) for i in range(64)]
        access_queue = AccessQueue(64)

        def body():
            for _ in range(n // 64):
                for desc, tag in entries:
                    access_queue.record(desc, tag)
                access_queue.drain()
        return _timed(body)

    yield "core.queue_record_drain_us", lambda: 1e6 / clock.rate(queue)

    # -- policies ------------------------------------------------------------
    trace = SyntheticTrace(seed=seed).zipf(
        "t", 2000, 3_000 if smoke else 30_000, theta=0.9).accesses

    def policy_ops(name: str) -> Callable[[int], float]:
        def batch(n: int) -> float:
            access = make_policy(name, 200).access
            wanted = list(itertools.islice(itertools.cycle(trace), n))
            return _timed(lambda: [access(key) for key in wanted])
        return batch

    for name in available_policies():
        yield (f"policies.ops_per_s.{name}",
               lambda name=name: clock.rate(policy_ops(name)))

    # -- workload generation -------------------------------------------------
    def generated_pages(name: str) -> float:
        def batch(n: int) -> float:
            stream = make_workload(name, seed=seed).transaction_stream(0)

            def body():
                count = 0
                while count < n:
                    count += len(next(stream).pages)
            return _timed(body)
        return clock.rate(batch)

    for name in _GENERATORS:
        yield (f"workloads.pages_per_s.{name}",
               lambda name=name: generated_pages(name))

    def tenant_pages(n: int) -> float:
        tenant = TenantState(TenantSpec(0, "tenant00", 128, 0.8, None, 8),
                             hot_pages=16, hot_fraction=0.1, hot_skew=0.6)
        rng = random.Random(seed)
        return _timed(lambda: [tenant.next_pages(rng, 4)
                               for _ in range(n // 4)])

    yield "serve.tenant_pages_per_s", lambda: clock.rate(tenant_pages)

    # -- db ------------------------------------------------------------------
    def plans(n: int) -> float:
        queries = make_workload("tpcc_lite", seed=seed).plan_stream(0)

        def body():
            for query in itertools.islice(queries, n):
                context = TraceExecContext()
                for root in query.statements:
                    drain_plan(root, context)
        return _timed(body)

    yield "db.exec_plans_per_s", lambda: clock.rate(plans, 16)

    def disk(n: int) -> float:
        def body(thread):
            for _ in range(n // 8):
                yield from array.read(thread)
        sim = Simulator()
        array = DiskArray(sim, service_time_us=100.0, concurrency=4,
                          seed=seed)
        _start_threads(sim, 8, 4, body)
        return _timed(sim.run)

    yield "db.disk_ios_per_s", lambda: clock.rate(disk)

    # -- serve / hardware ----------------------------------------------------
    def grants(n: int) -> float:
        bucket = TokenBucket(4000.0, burst=8)
        reserve = bucket.reserve
        return _timed(lambda: [reserve(index * 100.0) for index in range(n)])

    yield "serve.admission_grants_per_s", lambda: clock.rate(grants)

    def cache_ops(n: int) -> float:
        cache = MetadataCacheModel(ALTIX_350.costs)

        def body():
            for index in range(n // 3):
                thread_id = index & 7
                cache.prefetch(thread_id, 32)
                cache.warmup_cost(thread_id, 32)
                cache.note_commit(thread_id)
        return _timed(body)

    yield "hardware.cache_ops_per_s", lambda: clock.rate(cache_ops)

    # -- what observing costs: the fig6_hit pgBatPre cell with / without -----
    source = make_workload("dbt2", seed=seed, **_DBT2)
    cell = ExperimentConfig(
        system="pgBatPre", workload="dbt2", workload_kwargs=_DBT2,
        machine=ALTIX_350, n_processors=16, seed=seed,
        target_accesses=2_000 if smoke else 10_000)
    plain_s = []

    def overhead(config=cell, **attach) -> float:
        if not plain_s:
            plain_s.append(clock.best(
                lambda: _timed(lambda: run_experiment(cell, source))))
        return clock.best(lambda: _timed(lambda: run_experiment(
            config, source,
            **{key: make() for key, make in attach.items()}))) / plain_s[0]

    yield ("obs.metrics_overhead_ratio", lambda: overhead(
        observer=lambda: Observer(metrics=MetricsRegistry())))
    yield ("obs.trace_overhead_ratio", lambda: overhead(
        observer=lambda: Observer(trace=TraceRecorder())))
    yield ("check.checker_overhead_ratio",
           lambda: overhead(checker=CorrectnessChecker))
    yield ("control.adapter_overhead_ratio",
           lambda: overhead(cell.with_params(controller="threshold")))

    # -- harness -------------------------------------------------------------
    def parallel_speedup() -> float:
        configs = [cell.with_params(n_processors=8, seed=seed + index,
                                    target_accesses=cell.target_accesses // 2)
                   for index in range(8)]
        serial_s = _timed(lambda: run_many(configs, max_workers=1))
        return serial_s / _timed(lambda: run_many(configs, max_workers=2))

    yield "harness.parallel_speedup_2w", parallel_speedup

    def import_s() -> float:
        code = (f"import sys; sys.path.insert(0, {_SRC!r}); "
                "import repro, repro.serve, repro.harness.macro")
        return clock.best(lambda: _timed(lambda: subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60)))

    yield "harness.import_s", import_s

    def render_s() -> float:
        record = serve_grid(ServeConfig(target_requests=200, seed=seed),
                            [2], [2, 4], [0.8])
        return clock.best(lambda: _timed(lambda: render_serve_page(record)))

    yield "harness.dashboard_render_s", render_s


def run_all(tracer, seed: int, min_s: float, repeats: int,
            smoke: bool = False) -> Dict[str, float]:
    """Run every microbenchmark under its own span."""
    rows = {}
    for name, thunk in microbenchmarks(_Clock(min_s, repeats), seed, smoke):
        with tracer.span("microbenchmark", metric=name):
            rows[name] = float(thunk())
    return rows
