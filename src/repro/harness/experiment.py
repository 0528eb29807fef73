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

from repro.control import TRACE_DEFAULTS, bp_kwargs
from repro.core.bpwrapper import ThreadSlot
from repro.db.transactions import (Transaction, TransactionLog,
                                   TransactionOutcome)
from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350, MachineSpec
from repro.harness.driver import (IN_PROCESS, Run, access_ordered_prefix,
                                  validate)
from repro.harness.driver import run as drive
from repro.harness.systems import SystemBuild, build_system
from repro.runtime.base import Runtime, Wait
from repro.simcore.rng import stream_rng
from repro.sync.stats import LockStats
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload

__all__ = ["ExperimentConfig", "RunResult", "run_experiment"]


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
    prewarm: bool = True
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
    #: knobs from a shared-memory spec fixed at fork time.
    controller: Optional[str] = None
    #: Simulate per-bucket hash-table locks (ablation; off by default
    #: as in the paper, whose SII argues they are not a bottleneck).
    simulate_bucket_locks: bool = False
    seed: int = 42
    #: Safety net for pathological configurations. Under the native
    #: runtime the same number bounds *wall-clock* microseconds (join
    #: timeout — the deadlock guard).
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
class RunResult:
    """Measurements from one run (the paper's reported metrics first).

    All rates and ratios are computed over the post-warm-up window.
    """

    config: ExperimentConfig
    #: Transactions per second (Fig. 6/7 row 1).
    throughput_tps: float
    #: Average transaction response time, ms (Fig. 6/7 row 2).
    mean_response_ms: float
    #: 95th-percentile response time, ms (tail latency; convoys show
    #: here first).
    p95_response_ms: float
    #: Lock contentions per million page accesses (Fig. 6/7 row 3).
    contention_per_million: float
    #: Average lock acquisition + holding time per access, µs (Fig. 2).
    lock_time_per_access_us: float
    hit_ratio: float
    transactions: int
    accesses: int
    hits: int
    misses: int
    elapsed_us: float
    lock_stats: LockStats
    cpu_utilization: float
    mean_batch_size: float
    stale_queue_entries: int
    bgwriter_cleaned: int
    disk_reads: int
    disk_writes: int
    write_backs: int
    prefetches_issued: int
    prefetches_valid: int
    #: Whole-run totals (warm-up included), for diagnostics.
    total_accesses: int = 0
    total_transactions: int = 0
    #: Simulated time at which the warm-up window ended and measurement
    #: began (0.0 when warmup_fraction is 0). The contention analyzer
    #: splits trace spans at this boundary to price the paper's "lock
    #: warm-up" cost.
    warmup_end_us: float = 0.0
    #: Snapshot of the observability layer's MetricsRegistry (counters,
    #: gauges, log-bucketed histograms with p50/p99), present only when
    #: the run was observed (see :mod:`repro.obs`). None otherwise, and
    #: omitted from :meth:`to_dict` so unobserved records are unchanged.
    metrics: Optional[dict] = None
    #: Controller decision summary (name, decisions, final threshold),
    #: present only when ``config.controller`` was set. None otherwise,
    #: and omitted from :meth:`to_dict` so uncontrolled records — and
    #: their byte-identical goldens — are unchanged.
    controller: Optional[dict] = None

    def summary(self) -> str:
        """One-line report string."""
        return (f"{self.config.system:9s} {self.config.workload:9s} "
                f"p={self.config.n_processors:2d} "
                f"tps={self.throughput_tps:9.1f} "
                f"resp={self.mean_response_ms:7.3f}ms "
                f"cont/M={self.contention_per_million:10.1f} "
                f"hit={self.hit_ratio:6.3f}")

    def to_dict(self) -> dict:
        """A JSON-serializable flat record (for archiving/replotting).

        The record is complete: :meth:`from_dict` rebuilds a
        :class:`RunResult` whose ``to_dict()`` is equal, so archived
        grids and cross-process transports are lossless.
        """
        from dataclasses import asdict
        record = {
            "system": self.config.system,
            "workload": self.config.workload,
            "workload_kwargs": dict(self.config.workload_kwargs),
            "machine": self.config.machine.name,
            "n_processors": self.config.n_processors,
            "n_threads": self.config.resolved_threads(),
            "queue_size": self.config.queue_size,
            "batch_threshold": self.config.batch_threshold,
            "target_accesses": self.config.target_accesses,
            "warmup_fraction": self.config.warmup_fraction,
            "seed": self.config.seed,
            "throughput_tps": self.throughput_tps,
            "mean_response_ms": self.mean_response_ms,
            "p95_response_ms": self.p95_response_ms,
            "contention_per_million": self.contention_per_million,
            "lock_time_per_access_us": self.lock_time_per_access_us,
            "hit_ratio": self.hit_ratio,
            "transactions": self.transactions,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "elapsed_us": self.elapsed_us,
            "cpu_utilization": self.cpu_utilization,
            "mean_batch_size": self.mean_batch_size,
            "stale_queue_entries": self.stale_queue_entries,
            "bgwriter_cleaned": self.bgwriter_cleaned,
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "write_backs": self.write_backs,
            "prefetches_issued": self.prefetches_issued,
            "prefetches_valid": self.prefetches_valid,
            "total_accesses": self.total_accesses,
            "total_transactions": self.total_transactions,
            "warmup_end_us": self.warmup_end_us,
            "lock": asdict(self.lock_stats),
        }
        if self.config.runtime != "sim":
            # Only stamped for non-default backends so every archived
            # sim record (and its byte-identical goldens) is unchanged.
            record["runtime"] = self.config.runtime
        if self.metrics is not None:
            record["metrics"] = self.metrics
        if self.controller is not None:
            record["controller"] = self.controller
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "RunResult":
        """Rebuild a :class:`RunResult` from a :meth:`to_dict` record.

        The inverse of :meth:`to_dict`: ``from_dict(r.to_dict())``
        produces an equal record. Tolerates records written before the
        record format grew the extra fields (missing values fall back
        to derivable defaults). The machine is resolved by name through
        :func:`~repro.hardware.machines.machine_by_name`; unregistered
        ad-hoc specs come back as a named stand-in.
        """
        from repro.hardware.machines import machine_by_name
        accesses = record["accesses"]
        misses = record["misses"]
        config = ExperimentConfig(
            system=record["system"],
            workload=record["workload"],
            workload_kwargs=dict(record.get("workload_kwargs") or {}),
            machine=machine_by_name(record["machine"], strict=False),
            n_processors=record["n_processors"],
            n_threads=record["n_threads"],
            queue_size=record["queue_size"],
            batch_threshold=record["batch_threshold"],
            target_accesses=record.get("target_accesses", 60_000),
            warmup_fraction=record.get("warmup_fraction", 0.2),
            seed=record["seed"],
            runtime=record.get("runtime", "sim"),
            controller=(record["controller"]["controller"]
                        if record.get("controller") else None),
        )
        return cls(
            config=config,
            throughput_tps=record["throughput_tps"],
            mean_response_ms=record["mean_response_ms"],
            p95_response_ms=record.get("p95_response_ms", 0.0),
            contention_per_million=record["contention_per_million"],
            lock_time_per_access_us=record["lock_time_per_access_us"],
            hit_ratio=record["hit_ratio"],
            transactions=record["transactions"],
            accesses=accesses,
            hits=record.get("hits", accesses - misses),
            misses=misses,
            elapsed_us=record["elapsed_us"],
            lock_stats=LockStats(**record["lock"]),
            cpu_utilization=record["cpu_utilization"],
            mean_batch_size=record["mean_batch_size"],
            stale_queue_entries=record["stale_queue_entries"],
            bgwriter_cleaned=record["bgwriter_cleaned"],
            disk_reads=record["disk_reads"],
            disk_writes=record["disk_writes"],
            write_backs=record["write_backs"],
            prefetches_issued=record.get("prefetches_issued", 0),
            prefetches_valid=record.get("prefetches_valid", 0),
            total_accesses=record.get("total_accesses", 0),
            total_transactions=record.get("total_transactions", 0),
            warmup_end_us=record.get("warmup_end_us", 0.0),
            metrics=record.get("metrics"),
            controller=record.get("controller"),
        )


def _thread_body(sim: Runtime, slot: ThreadSlot, manager,
                 stream: Iterator[Transaction], log: TransactionLog,
                 shared: Dict[str, bool], target_accesses: int,
                 warmup_accesses: int,
                 begin_measurement: Callable[[], None],
                 user_work_us: float, quantum_us: float,
                 stagger_us: float,
                 work_rng=None) -> Generator[Wait, None, None]:
    thread = slot.thread
    if stagger_us > 0:
        yield from thread.sleep_blocked(stagger_us)
    for transaction in stream:
        if shared["stop"]:
            return
        started = sim.now
        hits = 0
        work_us = user_work_us * transaction.work_factor
        for index, page in enumerate(transaction.pages):
            # Per-access work varies ±25% (predicate complexity, tuple
            # counts). Besides realism, the jitter prevents the
            # deterministic simulator from settling into phase-locked
            # access patterns that no real system exhibits.
            if work_rng is not None:
                thread.charge(work_us * work_rng.uniform(0.75, 1.25))
            else:
                thread.charge(work_us)
            hit = yield from manager.access(
                slot, page, is_write=transaction.is_write(index))
            hits += 1 if hit else 0
            yield from thread.maybe_yield(quantum_us)
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
    a micro-benchmark of *genuine* ``threading.Lock`` contention on the
    host's cores. The checker is sim-only, the observer is wrapped in a
    :class:`~repro.runtime.native.ThreadSafeObserver`, and
    ``max_sim_time_us`` becomes the join timeout (the deadlock guard).
    Results are *not* deterministic run-to-run (the kernel schedules),
    but a single-threaded native run replays accesses in exactly the
    sim's per-thread order — the cross-runtime equivalence tests rely
    on that.
    """
    validate(config, checker, runtimes=(*IN_PROCESS, "mp"))
    if not 0.0 <= config.warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup_fraction must be in [0, 1), got "
            f"{config.warmup_fraction}")
    if config.runtime == "mp":
        from repro.runtime.mp import run_mp_experiment
        return run_mp_experiment(config, workload, observer=observer)
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
        if config.prewarm:
            pool.manager.warm_with(
                working_set if capacity >= len(working_set)
                else access_ordered_prefix(workload, capacity))
        run.shared["measuring"] = config.warmup_fraction == 0.0
        window = _Window(run, pool, log)
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
    run = drive(config, build, names, body, observer=observer,
                checker=checker)
    return _finalize_result(config, run, log, slots, window)


class _Window:
    """The measurement window's base: every counter as it stood when
    the warm-up ended (all zero for a run without warm-up)."""

    def __init__(self, run: Run, build: SystemBuild,
                 log: TransactionLog) -> None:
        self._runtime = run.runtime
        self._build = build
        self._log = log
        self._guard = self._runtime.mutex() or nullcontext()
        self._begun = False
        self.start_us = 0.0
        self.lock = LockStats()
        self.accesses = self.hits = self.misses = self.transactions = 0

    def begin(self) -> None:
        # On OS threads two bodies can cross the warm-up threshold at
        # once; only the first snapshot may win or the base is torn.
        with self._guard:
            if self._begun:
                return
            self._begun = True
            self.start_us = self._runtime.now
            # Window-relative max-hold tracking: reset each live lock's
            # window so the measured delta cannot leak a warm-up
            # transient.
            for lock in self._build.handler.locks:
                lock.stats.begin_window()
            self.lock = self._build.handler.lock_stats().copy()
            stats = self._build.manager.stats
            self.accesses = stats.accesses
            self.hits = stats.hits
            self.misses = stats.misses
            self.transactions = self._log.count


def _finalize_result(config: ExperimentConfig, run: Run,
                     log: TransactionLog, slots: List[ThreadSlot],
                     window: _Window) -> RunResult:
    """Assemble a :class:`RunResult` from a finished run's state.

    Pure computation shared by both runtime backends; under the sim
    backend the values are exactly what the historical inline code
    produced (golden-trace verified).
    """
    build = run.builds[0]
    stats = build.manager.stats
    lock_stats = build.handler.lock_stats().delta_since(window.lock)
    accesses = stats.accesses - window.accesses
    hits = stats.hits - window.hits
    misses = stats.misses - window.misses
    elapsed = run.elapsed_us - window.start_us
    measured = TransactionLog(log.outcomes[window.transactions:])

    queues = build.handler.queues(slots)
    batch_sizes = [queue.mean_batch_size() for queue in queues
                   if queue.commits > 0]
    mean_batch = (sum(batch_sizes) / len(batch_sizes)
                  if batch_sizes else 0.0)
    cache = build.metadata_cache
    disk = build.manager.disk
    if run.observer is not None:
        run.observer.publish_trace_drops()
    return RunResult(
        config=config,
        throughput_tps=measured.throughput_tps(elapsed),
        mean_response_ms=measured.mean_response_time_us() / 1000.0,
        p95_response_ms=measured.percentile_response_time_us(95.0) / 1000.0,
        contention_per_million=lock_stats.contentions_per_million(accesses),
        lock_time_per_access_us=lock_stats.lock_time_per_access_us(accesses),
        hit_ratio=hits / accesses if accesses else 0.0,
        transactions=measured.count,
        accesses=accesses,
        hits=hits,
        misses=misses,
        elapsed_us=elapsed,
        lock_stats=lock_stats,
        cpu_utilization=run.pool.utilization(run.elapsed_us),
        mean_batch_size=mean_batch,
        stale_queue_entries=sum(queue.total_stale for queue in queues),
        bgwriter_cleaned=run.bgwriter.pages_cleaned if run.bgwriter else 0,
        disk_reads=disk.reads if disk is not None else 0,
        disk_writes=disk.writes if disk is not None else 0,
        write_backs=stats.write_backs,
        prefetches_issued=cache.prefetches_issued,
        prefetches_valid=cache.prefetches_valid_at_use,
        total_accesses=stats.accesses,
        total_transactions=log.count,
        warmup_end_us=float(window.start_us),
        metrics=run.metrics(),
        controller=build.controller_summary(),
    )
