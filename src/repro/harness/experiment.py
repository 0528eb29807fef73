"""Run one experiment configuration through the simulator.

:func:`run_experiment` assembles machine + workload + system, spawns
the overcommitted transaction-processing threads (the paper keeps "more
active postgresql back-end processes than the number of processors
used in each test", §IV-C), optionally pre-warms the buffer so no
misses occur (§IV), runs until the access target is reached, and
returns a :class:`RunResult` carrying the three quantities every plot
in the paper reports: throughput, average response time, and average
lock contention (contentions per million page accesses).

Two methodological details matter for clean measurements:

* **Stagger.** Threads start with small deterministic offsets;
  otherwise every private FIFO queue fills in lock-step and the first
  commit wave produces a synchronized convoy no real system exhibits.
* **Warm-up window.** Statistics are measured only after
  ``warmup_fraction`` of the access target has completed, excluding
  ramp-up transients (queues filling, caches settling).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Generator, Iterator, List, Optional

from repro.bufmgr.manager import AccessStats
from repro.control import TRACE_DEFAULTS, bp_kwargs
from repro.core.bpwrapper import ThreadSlot
from repro.db.transactions import (Transaction, TransactionLog,
                                   TransactionOutcome)
from repro.errors import ConfigError, SimulationError
from repro.hardware.machines import ALTIX_350, MachineSpec, machine_by_name
from repro.harness.driver import Run, access_ordered_prefix
from repro.harness.driver import run as drive
from repro.harness.report import ResultRecord, derived, reported
from repro.harness.systems import build_system
from repro.runtime.base import Runtime, Wait
from repro.simcore.rng import stream_rng
from repro.sync.stats import LockStats
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload

__all__ = ["ExperimentConfig", "RunResult", "assemble", "run_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run."""

    system: str = "pg2Q"
    workload: str = "dbt1"
    workload_kwargs: dict = field(default_factory=dict)
    machine: MachineSpec = ALTIX_350
    n_processors: int = 16
    #: Back-end threads; None = 2x processors (overcommitted, as §IV-C).
    n_threads: Optional[int] = None
    #: Buffer pool size in pages; None = whole working set + slack so
    #: scalability runs are miss-free, as in the paper.
    buffer_pages: Optional[int] = None
    #: Stop once this many page accesses completed (checked at
    #: transaction boundaries).
    target_accesses: int = 60_000
    #: Fraction of the target excluded from measurements (ramp-up).
    warmup_fraction: float = 0.2
    #: Attach the disk model (needed whenever misses can happen).
    use_disk: bool = False
    #: Run a bgwriter daemon flushing dirty pages ahead of eviction
    #: (only meaningful with use_disk; stock PostgreSQL runs one).
    background_writer: bool = False
    #: Swap the advanced policy (paper also runs lirs / mq).
    policy_name: Optional[str] = None
    policy_kwargs: dict = field(default_factory=dict)
    queue_size: int = TRACE_DEFAULTS.queue_size
    batch_threshold: int = TRACE_DEFAULTS.batch_threshold
    #: Attach a control-plane controller (e.g. "threshold") to the
    #: pool; None (the default) keeps every knob at its configured
    #: value. Unsupported on the mp backend, whose workers read the
    #: knobs from the config as it stood at fork time.
    controller: Optional[str] = None
    #: Simulate per-bucket hash-table locks (ablation; off by default
    #: as in the paper, whose SII argues they are not a bottleneck).
    simulate_bucket_locks: bool = False
    seed: int = 42
    #: Safety net for pathological configurations. Under the native
    #: and mp runtimes the same number bounds *wall-clock* microseconds
    #: (join timeout — the deadlock guard).
    max_sim_time_us: float = 600_000_000.0
    #: Execution backend: "sim" (deterministic discrete-event
    #: simulator, the default and the paper's instrument), "native"
    #: (real OS threads via :mod:`repro.runtime.native` — wall-clock
    #: micro-benchmarking of genuine lock contention; truly parallel
    #: only on free-threaded CPython), or "mp" (worker *processes*
    #: over shared-memory frame tables via :mod:`repro.runtime.mp` —
    #: true multi-core wall-clock scaling on any CPython build).
    runtime: str = "sim"

    def with_params(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)

    def resolved_threads(self) -> int:
        if self.n_threads is not None:
            if self.n_threads < 1:
                raise ConfigError(
                    f"n_threads must be >= 1, got {self.n_threads}")
            return self.n_threads
        return max(2 * self.n_processors, self.n_processors + 4)

    def resolved_buffer_pages(self, workload: Workload) -> int:
        """``buffer_pages``, or the whole working set plus slack."""
        if self.buffer_pages is not None:
            return self.buffer_pages
        return len(workload.working_set_pages()) + 64


@dataclass(frozen=True)
class RunResult(ResultRecord):
    """Measurements from one run (the paper's reported metrics first).

    All rates and ratios are computed over the post-warm-up window.
    Fields are declared once, in record order: :meth:`to_dict` and
    :meth:`from_dict` are read off this declaration and every runtime
    builds the record through :func:`assemble`. A field that differs
    by runtime says so here (table: docs/architecture.md §10).
    """

    CONFIG_KEYS = ("system", "workload", "workload_kwargs", "machine",
                   "n_processors", "n_threads", "queue_size",
                   "batch_threshold", "target_accesses", "warmup_fraction",
                   "seed")

    config: ExperimentConfig
    #: Transactions per second (Fig. 6/7 row 1). mp: the sum of each
    #: worker's own post-warm-up rate.
    throughput_tps: float
    #: Average transaction response time, ms (Fig. 6/7 row 2).
    mean_response_ms: float
    #: 95th-percentile response time, ms (tail latency; convoys show
    #: here first). mp: over at most 2,000 windowed samples per worker.
    p95_response_ms: float
    #: Lock contentions per million page accesses (Fig. 6/7 row 3).
    contention_per_million: float = derived()
    #: Average lock acquisition + holding time per access, µs (Fig. 2).
    lock_time_per_access_us: float = derived()
    hit_ratio: float = derived()
    transactions: int
    accesses: int
    hits: int
    misses: int
    #: sim/native: the post-warm-up window (simulated / wall-clock µs).
    #: mp: the *whole run*, start barrier to last worker result — the
    #: ledger's scaling ratios divide ``total_accesses`` by it.
    elapsed_us: float
    #: sim: busy share of the simulated processors; native/mp: thread
    #: / worker CPU seconds over wall seconds x processors.
    cpu_utilization: float
    #: Unweighted mean of the per-queue mean batch sizes; like every
    #: queue- and pool-side counter below, over the whole run.
    mean_batch_size: float
    stale_queue_entries: int
    #: 0 for a run without a bgwriter / a disk (mp never has either).
    bgwriter_cleaned: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    write_backs: int = 0
    #: Pre-commit prefetch passes (mp: pre-commit touch loops), and how
    #: many prefetched lines were still cached at use — a cache-model
    #: quantity with no mp analogue: always 0 there.
    prefetches_issued: int = 0
    prefetches_valid: int = 0
    #: Whole-run totals (warm-up included), for diagnostics.
    total_accesses: int = 0
    total_transactions: int = 0
    #: Simulated time at which the warm-up window ended and measurement
    #: began (0.0 when warmup_fraction is 0). The contention analyzer
    #: splits trace spans at this boundary to price the paper's "lock
    #: warm-up" cost. mp: the last worker's offset from the barrier.
    warmup_end_us: float = 0.0
    lock_stats: LockStats = reported("lock", default_factory=LockStats)
    #: Optional blocks (None = absent from the record): the obs layer's
    #: MetricsRegistry snapshot (counters, gauges, log-bucketed histograms
    #: with p50/p99) of an observed run, and the controller's decision
    #: summary (name, decisions, final threshold) of a controlled one.
    metrics: Optional[dict] = None
    controller: Optional[dict] = None

    def summary(self) -> str:
        """One-line report string."""
        return (f"{self.config.system:9s} {self.config.workload:9s} "
                f"p={self.config.n_processors:2d} "
                f"tps={self.throughput_tps:9.1f} "
                f"resp={self.mean_response_ms:7.3f}ms "
                f"cont/M={self.contention_per_million:10.1f} "
                f"hit={self.hit_ratio:6.3f}")

    @classmethod
    def from_dict(cls, record: dict) -> "RunResult":
        """Rebuild a :class:`RunResult` from a :meth:`to_dict` record.

        The same declaration read backwards:
        ``from_dict(r.to_dict()).to_dict()`` equals the record. The
        machine is resolved by name (:func:`machine_by_name`);
        unregistered ad-hoc specs come back as a named stand-in.
        """
        head = {key: record[key] for key in cls.CONFIG_KEYS}
        head["machine"] = machine_by_name(head["machine"], strict=False)
        head["workload_kwargs"] = dict(head["workload_kwargs"])
        values = cls.field_values(record)
        values["lock_stats"] = LockStats(**values["lock_stats"])
        controller = record.get("controller")
        return cls(
            config=ExperimentConfig(
                **head, runtime=record.get("runtime", "sim"),
                controller=controller["controller"] if controller else None),
            **values, metrics=record.get("metrics"), controller=controller)


def _thread_body(sim: Runtime, slot: ThreadSlot, manager,
                 stream: Iterator[Transaction], log: TransactionLog,
                 shared: Dict[str, bool], target_accesses: int,
                 warmup_accesses: int,
                 begin_measurement: Callable[[], None],
                 user_work_us: float, quantum_us: float,
                 stagger_us: float,
                 work_rng) -> Generator[Wait, None, None]:
    thread = slot.thread
    # The per-access loop below runs once per page: its callees are
    # looked up once per thread. Its settle step is maybe_yield's test,
    # inline; a native thread keeps no simulated time and has none.
    settles = hasattr(thread, "maybe_yield")
    request = manager.request
    jitter = work_rng.random
    if stagger_us > 0:
        yield from thread.sleep_blocked(stagger_us)
    for transaction in stream:
        if shared["stop"]:
            return
        started = sim.now
        hits = 0
        work_us = user_work_us * transaction.work_factor
        if work_us < 0:
            # Checked here once, so each access below adds it unchecked.
            raise SimulationError(f"negative charge: {work_us}")
        writes = transaction.write_indices
        for index, page in enumerate(transaction.pages):
            # Per-access work varies ±25% (predicate complexity, tuple
            # counts). Besides realism, the jitter prevents the
            # deterministic simulator from settling into phase-locked
            # access patterns that no real system exhibits. The draw
            # is ``random.uniform(0.75, 1.25)``'s own formula.
            thread.pending_us += work_us * (0.75 + 0.5 * jitter())
            served = request(slot, page, index in writes)
            if served is not True:  # a continuation: it may wait
                served = yield from served
            if served:
                hits += 1
            if settles and (thread.cpu_time + thread.pending_us
                            - thread.yield_mark >= quantum_us):
                yield from thread.yield_cpu()
        log.record(TransactionOutcome(
            kind=transaction.kind, started_at_us=started,
            finished_at_us=sim.now, accesses=len(transaction.pages),
            hits=hits))
        accesses_so_far = manager.stats.accesses
        if not shared["measuring"] and accesses_so_far >= warmup_accesses:
            shared["measuring"] = True
            begin_measurement()
        if accesses_so_far >= target_accesses:
            shared["stop"] = True
            return
        if transaction.think_time_us > 0:
            yield from thread.sleep_blocked(transaction.think_time_us)
        # Back-ends hit a syscall boundary between transactions: give
        # waiting peers the processor.
        yield from thread.yield_cpu()


def run_experiment(config: ExperimentConfig,
                   workload: Optional[Workload] = None,
                   observer=None, checker=None) -> RunResult:
    """Execute ``config`` and return its measurements.

    A pre-built ``workload`` instance may be supplied to amortize
    construction across a sweep; it must match ``config.workload``.

    ``observer`` (a :class:`repro.obs.Observer`) attaches the
    observability layer for this run: lock wait/hold spans, batch
    flushes and miss I/O stream into its trace recorder, and its
    metrics snapshot lands on ``RunResult.metrics``. Tracing never
    alters simulated time, so an observed run's measurements equal the
    unobserved run's exactly (tests assert this).

    ``checker`` (a :class:`repro.check.CorrectnessChecker`) attaches
    the correctness subsystem: the lock protocol, commit-under-lock
    rule and policy invariants are verified online, raising
    :class:`~repro.errors.CheckError` / PolicyError at the violating
    event, and the global arrival order is recorded for the
    differential oracle. If the run drains its event queue (is not cut
    off by ``max_sim_time_us``), the checker's end-of-run quiescence
    sweep runs too. Like the observer, the checker never alters
    simulated time.

    ``runtime="native"`` runs the identical handler/manager/policy
    code on real OS threads (:mod:`repro.runtime.native`): blocking
    means blocking an OS thread and ``elapsed_us`` is wall-clock time —
    a micro-benchmark of ``threading.Lock`` costs on the host (with
    the GIL on, the threads take turns and rarely contend). The checker
    is sim-only, the observer is wrapped in a
    :class:`~repro.runtime.native.ThreadSafeObserver`, and
    ``max_sim_time_us`` becomes the join timeout (the deadlock guard).
    Results are *not* deterministic run-to-run (the kernel schedules),
    but a single-threaded native run replays accesses in exactly the
    sim's per-thread order — the cross-runtime equivalence tests rely
    on that.

    ``runtime="mp"`` runs worker processes over a shared frame table
    (:func:`repro.runtime.mp.trace_tier`) through the same driver.
    """
    if not 0.0 <= config.warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup_fraction must be in [0, 1), got "
            f"{config.warmup_fraction}")
    tier = _trace_tier
    if config.runtime == "mp":
        from repro.runtime.mp import trace_tier as tier
    build, names, body, finalize = tier(config, workload)
    return finalize(drive(config, build, names, body, observer=observer,
                          checker=checker, runtimes=("sim", "native", "mp")))


def _trace_tier(config: ExperimentConfig, workload: Optional[Workload]):
    """The trace tier's build, names, body and finalize on sim/native."""
    costs = config.machine.costs
    log = TransactionLog()
    slots: List[ThreadSlot] = []
    warmup_accesses = int(config.target_accesses * config.warmup_fraction)
    window: Optional[_Window] = None

    def build(run: Run) -> None:
        nonlocal workload, window
        if workload is None:
            workload = make_workload(config.workload, seed=config.seed,
                                     **config.workload_kwargs)
        working_set = workload.working_set_pages()
        capacity = config.resolved_buffer_pages(workload)
        pool = run.adopt(build_system(
            config.system, run.runtime, capacity, config.machine,
            **bp_kwargs(config), disk=run.create_disk(config.seed),
            policy_kwargs=config.policy_kwargs,
            simulate_bucket_locks=config.simulate_bucket_locks))
        pool.manager.warm_with(
            working_set if capacity >= len(working_set)
            else access_ordered_prefix(workload, capacity))
        run.shared["measuring"] = config.warmup_fraction == 0.0
        window = _Window(run, log)
        run.start_bgwriter(pool.manager)

    def body(run: Run, thread, index: int):
        slot = run.builds[0].handler.new_slot(thread, index)
        slots.append(slot)
        return _thread_body(
            run.runtime, slot, run.builds[0].manager,
            workload.transaction_stream(index), log, run.shared,
            config.target_accesses, warmup_accesses, window.begin,
            costs.user_work_us, costs.scheduler_quantum_us,
            stagger_us=run.stagger_us("stagger", index),
            work_rng=stream_rng(config.seed, "work", index))

    names = [f"backend-{index}"
             for index in range(config.resolved_threads())]
    return build, names, body, (
        lambda run: _finalize_result(run, log, slots, window))


class _Window:
    """The measurement window's base: when the warm-up ended and every
    counter as it stood then (all zero for a run without warm-up)."""

    def __init__(self, run: Run, log: TransactionLog) -> None:
        self._run = run
        self._log = log
        self._guard = run.runtime.mutex() or nullcontext()
        self._begun = False
        self.start_us = 0.0
        self.transactions = 0
        self.access = AccessStats()
        self.lock = LockStats()

    def begin(self) -> None:
        # On OS threads two bodies can cross the warm-up threshold at
        # once; only the first snapshot may win or the base is torn.
        with self._guard:
            if self._begun:
                return
            self._begun = True
            self.start_us = self._run.runtime.now
            self.transactions = self._log.count
            # Restart each live lock's hold maximum, so the window's
            # delta cannot leak a warm-up transient.
            for lock in self._run.builds[0].handler.locks:
                lock.stats.begin_window()
            self.access = self._run.access_stats()
            self.lock = self._run.lock_stats()


def _finalize_result(run: Run, log: TransactionLog,
                     slots: List[ThreadSlot], window: _Window) -> RunResult:
    """A finished in-process run's :class:`RunResult` (under the sim
    runtime the values are golden-trace verified)."""
    build = run.builds[0]
    total = run.access_stats()
    elapsed = run.elapsed_us - window.start_us
    measured = TransactionLog(log.outcomes[window.transactions:])
    cache = build.metadata_cache
    if run.observer is not None:
        run.observer.publish_trace_drops()
    return assemble(
        run.config, total, total.delta_since(window.access),
        run.lock_stats().delta_since(window.lock),
        build.handler.queues(slots),
        throughput_tps=measured.throughput_tps(elapsed),
        mean_response_ms=measured.mean_response_time_us() / 1000.0,
        p95_response_ms=measured.percentile_response_time_us(95.0) / 1000.0,
        transactions=measured.count,
        elapsed_us=elapsed,
        cpu_utilization=run.pool.utilization(run.elapsed_us),
        **run.pool_side(),
        prefetches_issued=cache.prefetches_issued,
        prefetches_valid=cache.prefetches_valid_at_use,
        total_transactions=log.count,
        warmup_end_us=float(window.start_us),
        metrics=run.metrics(),
        controller=build.controller_summary())


def assemble(config: ExperimentConfig, total: AccessStats,
             access: AccessStats, lock: LockStats, queues,
             **measures) -> RunResult:
    """Build the :class:`RunResult` of any runtime's finished run.

    ``total`` is the whole run's access counters, ``access`` and
    ``lock`` the measurement window's (``delta_since`` the warm-up
    snapshot), ``queues`` every wrapper queue; ``measures`` are the
    fields only the runtime can tell (clock, responses, pool side).
    What derives from counters is derived here or in the record, so
    sim, native and mp cannot disagree about it.
    """
    batch_sizes = [queue.mean_batch_size() for queue in queues
                   if queue.commits > 0]
    return RunResult(
        config=config, accesses=access.accesses, hits=access.hits,
        misses=access.misses, lock_stats=lock,
        mean_batch_size=(sum(batch_sizes) / len(batch_sizes)
                         if batch_sizes else 0.0),
        stale_queue_entries=sum(queue.total_stale for queue in queues),
        write_backs=total.write_backs, total_accesses=total.accesses,
        **measures)
