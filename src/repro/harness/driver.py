"""The one run driver: every tier, every runtime.

BP-Wrapper does not care which replacement algorithm it wraps or where
it runs; neither does this module. :func:`run` walks the lifecycle of
one run against the :class:`~repro.runtime.base.Runtime` protocol —

1. **validate** the rules every tier shares (:func:`validate`);
2. **open** the runtime ``config.runtime`` names;
3. **build** the pool(s) and pre-warm them (the tier's ``build``,
   using :meth:`Run.create_disk` / :meth:`Run.adopt`);
4. **start daemons** (``build`` ends with :meth:`Run.start_bgwriter` /
   :meth:`Run.start_daemon`), so they are scheduled before any body;
5. **spawn** one thread per name, in index order, each running the
   generator the tier's *body factory* returns;
6. **join** (``runtime.join``: the sim event loop, or the wall-clock
   deadline join of OS threads or mp worker processes) —

and hands the finished :class:`Run` back for the tier's finalize, which
reads the pool-side totals off it (:meth:`Run.access_stats`,
:meth:`Run.lock_stats`, :meth:`Run.pool_side`, controllers, metrics) and
builds its :class:`~repro.harness.report.ResultRecord`. The
trace tier (:mod:`repro.harness.experiment`), the macro tier
(:mod:`repro.harness.macro`) and the serve tier
(:mod:`repro.serve.frontend`) are a build/finalize pair around it and
differ in their body: a transaction stream, a plan stream, a tenant
session.

**Body-factory contract.** ``body(run, thread, index)`` is called once
per name, after ``build`` and the daemons, and returns the generator
``thread`` will drive. It builds the thread's private state (its
:class:`~repro.core.bpwrapper.ThreadSlot`, exec context, …), polls
``run.shared["stop"]`` at its unit-of-work boundaries and sets it when
the run's target is reached. Blocking is ``yield from`` on the thread
or a lock, never a bare event, so the same generator runs under sim and
native (:mod:`repro.runtime.base`); an mp thread is a worker process
forked at ``join``, whose body returns its report to the finalize.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.bufmgr.bgwriter import BackgroundWriter
from repro.bufmgr.manager import AccessStats
from repro.control import make_controller
from repro.errors import ConfigError
from repro.runtime.native import NativeRuntime, ThreadSafeObserver
from repro.simcore.engine import Simulator
from repro.simcore.rng import split_seed, stream_rng
from repro.sync.stats import LockStats

__all__ = ["Run", "access_ordered_prefix", "run", "validate"]

Body = Generator[Any, Any, Any]


def validate(config, checker=None, observer=None,
             runtimes: Sequence[str] = ("sim", "native")) -> None:
    """The rules every tier shares, each stated once.

    ``runtimes`` is what the tier's entry point accepts (the message
    lists it); tier-specific geometry stays with the tier.
    """
    if config.runtime not in runtimes:
        raise ConfigError(
            f"unknown runtime {config.runtime!r}; available: "
            f"{', '.join(runtimes)}")
    if checker is not None and config.runtime != "sim":
        raise ConfigError(
            "the correctness checker shadows the sim lock protocol; "
            "use runtime='sim' for checked runs")
    machine = config.machine
    if config.n_processors > machine.max_processors:
        raise ConfigError(
            f"{machine.name} has at most {machine.max_processors} "
            f"processors, asked for {config.n_processors}")
    if config.runtime != "mp":
        return
    # Imported here: the other runtimes never load multiprocessing.
    import multiprocessing

    from repro.runtime.mp import MP_SYSTEMS
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError(
            "the mp backend forks its workers from the built pool; this "
            "platform has no 'fork' start method")
    if observer is not None and (
            getattr(observer, "trace", None) is not None
            or getattr(observer, "metrics", None) is None):
        raise ConfigError(
            "the observability layer's trace recorder records "
            "in-process; mp workers cannot share it — attach a "
            "metrics-only Observer (metrics=..., trace=None) to "
            "collect merged per-worker registry snapshots, or use "
            "runtime='sim' or 'native' for traces")
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
    if config.n_processors < 1:
        raise ConfigError(f"need >= 1 worker, got {config.n_processors}")


class _Daemon:
    """A started body the runtime's ``join`` must stop: see
    :class:`repro.runtime.base.Daemon`."""

    def __init__(self, thread, interval_us: float,
                 shared: Dict[str, Any]) -> None:
        self.thread = thread
        self.interval_us = interval_us
        self._shared = shared

    def stop(self) -> None:
        self._shared["stop"] = True


class Run:
    """One run's state: opened by the driver, filled by the tier's
    ``build``, read by its finalize."""

    def __init__(self, config, runtime, observer) -> None:
        self.config = config
        self.runtime = runtime
        #: The caller's observer, unwrapped: finalize reads its
        #: registry once every thread has been joined.
        self.observer = observer
        self.pool = runtime.create_pool(
            config.n_processors, config.machine.costs.context_switch_us)
        #: The flags every body and daemon polls; tiers add their own
        #: counters next to ``stop``.
        self.shared: Dict[str, Any] = {"stop": False}
        #: Adopted :class:`~repro.harness.systems.SystemBuild`\\ s (one
        #: per buffer pool), in build order.
        self.builds: List[Any] = []
        self.disks: List[Any] = []
        self.daemons: List[Any] = []
        self.bgwriter: Optional[BackgroundWriter] = None
        self.threads: List[Any] = []
        #: ``runtime.now`` when ``join`` returned (sim: simulated µs;
        #: native: wall-clock µs since the runtime was opened; mp:
        #: wall-clock µs from the start barrier to the last report).
        self.elapsed_us = 0.0

    # -- for the tier's build ----------------------------------------------

    def create_disk(self, seed: int):
        """This run's disk model, or None when the config has none."""
        if not self.config.use_disk:
            return None
        costs = self.config.machine.costs
        self.disks.append(self.runtime.create_disk(
            costs.disk_read_us, costs.disk_concurrency, seed=seed))
        return self.disks[-1]

    def adopt(self, build):
        """Finish one freshly built pool and return it: attach the
        configured controller (one instance per pool — each adapts to
        its own replacement lock's contention) and let the runtime
        make the manager safe to run on."""
        if self.config.controller:
            build.control.controller = make_controller(
                self.config.controller)
        self.runtime.prepare(build.manager)
        self.builds.append(build)
        return build

    def thread(self, name: str):
        """A new thread on the run's processors (its seed feeds the
        native lock-spin jitter only)."""
        return self.runtime.create_thread(
            self.pool, name=name,
            seed=split_seed(self.config.seed, "thread", name))

    def start_bgwriter(self, manager) -> None:
        """Start the bgwriter daemon on ``manager`` if the config asks
        for one (only meaningful with a disk to write to)."""
        if not (self.config.background_writer
                and manager.disk is not None):
            return
        self.bgwriter = BackgroundWriter(
            manager, self.thread("bgwriter"), shared_stop=self.shared)
        self.bgwriter.start()
        self.daemons.append(self.bgwriter)

    def start_daemon(self, name: str, interval_us: float,
                     body: Callable[[Any, Any], Body]) -> None:
        """Start ``body(runtime, thread)``, a loop that wakes every
        ``interval_us`` until ``shared["stop"]`` is set."""
        thread = self.thread(name)
        thread.start(body(self.runtime, thread))
        self.daemons.append(_Daemon(thread, interval_us, self.shared))

    # -- for the tier's body factory and finalize --------------------------

    def stagger_us(self, tag: str, index: int) -> float:
        """Deterministic start offset of body ``index``.

        Bodies start spread over about one queue-fill period; otherwise
        every private FIFO queue fills in lock-step and the first
        commit wave is a synchronized convoy no real system exhibits.
        """
        config = self.config
        window = (config.machine.costs.user_work_us
                  * max(8, config.queue_size))
        return stream_rng(config.seed, tag, index).uniform(0.0, window)

    def access_stats(self) -> AccessStats:
        """Every pool's access counters, summed (a fresh object, so it
        doubles as a snapshot while the run is live)."""
        total = AccessStats()
        for build in self.builds:
            total = total.merged_with(build.manager.stats)
        return total

    def lock_stats(self) -> LockStats:
        """Every pool's replacement-lock counters, summed (fresh too)."""
        total = LockStats()
        for build in self.builds:
            total = total.merged_with(build.handler.lock_stats())
        return total

    def pool_side(self) -> Dict[str, int]:
        """What the disks and the bgwriter did over the whole run, by
        result-field name (0 where the run had none)."""
        return {
            "disk_reads": sum(disk.reads for disk in self.disks),
            "disk_writes": sum(disk.writes for disk in self.disks),
            "bgwriter_cleaned": (self.bgwriter.pages_cleaned
                                 if self.bgwriter else 0),
        }

    def controller_summaries(self) -> Optional[List[dict]]:
        """One decision summary per pool in build order; None for an
        uncontrolled run."""
        if not self.config.controller:
            return None
        return [build.controller_summary() for build in self.builds]

    def metrics(self) -> Optional[dict]:
        """Snapshot of the observer's registry; None when unobserved."""
        observer = self.observer
        if observer is None or observer.metrics is None:
            return None
        return observer.metrics.snapshot()


def run(config, build: Callable[[Run], None], names: Sequence[str],
        body: Callable[[Run, Any, int], Body], observer=None,
        checker=None, runtimes: Sequence[str] = ("sim", "native")) -> Run:
    """Run ``len(names)`` bodies of one tier to completion.

    ``build(run)`` constructs and pre-warms the pool(s) and starts the
    daemons; ``body(run, thread, index)`` is the body factory (see the
    module docstring). Returns the finished :class:`Run`.
    """
    validate(config, checker, observer, runtimes)
    if config.runtime == "native":
        runtime = NativeRuntime(
            observer=(ThreadSafeObserver(observer)
                      if observer is not None else None),
            seed=config.seed)
    elif config.runtime == "mp":
        from repro.runtime.mp import MpRuntime
        runtime = MpRuntime()
    else:
        runtime = Simulator()
        runtime.observer = observer
        runtime.checker = checker
    state = Run(config, runtime, observer)
    try:
        build(state)
        for index, name in enumerate(names):
            thread = state.thread(name)
            state.threads.append(thread)
            thread.start(body(state, thread, index))
        runtime.join(state.threads, state.daemons, config.max_sim_time_us)
    finally:
        # Whatever is still alive (a failed build's daemon, a thread
        # stuck past the deadline) exits at its next look at the flag.
        state.shared["stop"] = True
    state.elapsed_us = runtime.now
    return state


def access_ordered_prefix(workload, capacity: int) -> list:
    """First ``capacity`` distinct pages in merged access order.

    What a pool smaller than the working set is pre-warmed with: the
    state a running system would be in. Schema order would leave the
    hottest pages cold and bias the measurement window with cold-start
    misses.
    """
    distinct: Dict[object, None] = {}
    streams = [workload.transaction_stream(index) for index in range(8)]
    # Bounded scan: stop once enough distinct pages are found or the
    # streams have clearly covered their hot sets.
    for _round in range(200):
        for stream in streams:
            for page in next(stream).pages:
                if page not in distinct:
                    distinct[page] = None
                    if len(distinct) >= capacity:
                        return list(distinct)
    return list(distinct)
