"""Native backend: the same BP-Wrapper core on real OS threads.

Implements the :mod:`repro.runtime.base` protocols over
:mod:`threading` so the identical handler/manager code measures real
``threading.Lock`` costs on the host instead of simulated
microseconds. With the GIL on, the threads take turns rather than
overlap, so they rarely contend (:func:`gil_enabled`):

* :class:`NativeLock` — a ``threading.Lock`` with the paper's
  ``Lock()``/``TryLock()`` semantics, a spinning ``try_acquire`` with
  per-thread jittered backoff, and monotonic-clock
  :class:`~repro.sync.stats.LockStats` (wait/hold times in wall-clock
  microseconds, contention = a request that had to block).
* :class:`NativeThread` — drives the shared generator bodies on an OS
  thread. Every blocking primitive blocks *at call time* and returns
  an empty iterable, so ``yield from`` delegation is a no-op and the
  body runs inline to completion (see :mod:`repro.runtime.base`).
* :class:`NativeRuntime` — ``time.monotonic()`` microsecond clock plus
  the ``event()``/``create_lock()`` factories and the run lifecycle
  (pool/thread/disk factories, ``prepare``, ``mutex``, ``join``).

Concurrency model
-----------------
The replacement lock serializes every structure mutation (policy
state, hash-table insert/remove, frame pool) exactly as it does in
PostgreSQL. A :class:`NativeLock`'s own stats need little more: every
field but the two ``TryLock()`` counters is written only by the
holder, while it holds the ``threading.Lock`` the stats describe, so
the lock's acquire/release orders those writes on a free-threaded
build as well as under the GIL. A small internal mutex per lock guards
only what a non-holder writes: the waiter count and the ``TryLock()``
counters. The one exception is the harness's warm-up snapshot, which
resets ``window_max_hold_us`` and copies the stats without the lock.
Pin/unpin take no lock at all, where PostgreSQL takes the buffer
header lock: a descriptor's pins are entries of a list, and
``list.append`` / ``del pins[i]`` are single C operations, atomic under
the GIL and under a free-threaded build's per-list lock (see
:mod:`repro.bufmgr.descriptors`).

Shared *counters* (``AccessStats``, per-thread accounting) are updated
without locks: CPython's GIL makes the individual operations atomic
enough that the races only cost occasional lost increments, which is
acceptable for throughput counters and documented here rather than
paid for on every access. Lock-free-hit systems (``pgclock``) run
their hits through the policy's ``on_hit_relaxed`` path, which
tolerates the race with a concurrent (lock-holding) miss the same way
PostgreSQL's unlatched ref-bit store does; the disk model is
:class:`NativeDisk` (a semaphore-bounded wall-clock stand-in for
:class:`~repro.db.storage.DiskArray`) and the bgwriter daemon runs on
its own :class:`NativeThread`.

On free-threaded CPython builds (3.13+, ``--disable-gil``) the OS
threads here execute truly in parallel; :func:`gil_enabled` /
:func:`true_thread_parallelism` report which regime the host is in so
benchmarks can label their numbers (see ``benchmarks/bench_scaling.py``
and the ``mp`` backend in :mod:`repro.runtime.mp` for guaranteed
multi-core execution on stock builds).
"""

from __future__ import annotations

import random
import sys
import threading
import time
from time import monotonic as _monotonic
from typing import Any, Generator, Optional

from repro.errors import ConfigError, LockError, SimulationError
from repro.policies.base import LockDiscipline
from repro.runtime.base import check_lock_costs, wall_budget_exceeded
from repro.sync.stats import LockStats

__all__ = [
    "NativeDisk",
    "NativeEvent",
    "NativeLock",
    "NativePool",
    "NativeThread",
    "NativeRuntime",
    "ThreadSafeObserver",
    "gil_enabled",
    "true_thread_parallelism",
]


def gil_enabled() -> bool:
    """True when this interpreter serializes threads with the GIL.

    Free-threaded CPython (3.13+, built with ``--disable-gil``)
    exposes :func:`sys._is_gil_enabled`; on every other build the GIL
    is unconditionally on.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is None:
        return True
    return bool(probe())


def true_thread_parallelism() -> bool:
    """True when OS threads in this process can run on multiple cores
    *simultaneously* — i.e. the native backend measures genuine
    multi-core wall-clock scaling rather than GIL-interleaved
    concurrency."""
    return not gil_enabled()

#: Shared empty iterable: ``yield from ()`` delegates nothing, so the
#: generator bodies written for the simulator run straight through.
_NO_EVENTS: tuple = ()


class NativeEvent:
    """A one-shot occurrence over :class:`threading.Event`."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    @property
    def triggered(self) -> bool:
        return self._event.is_set()

    def succeed(self) -> "NativeEvent":
        self._event.set()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)


class NativeLock:
    """Exclusive, non-reentrant OS lock with BP-Wrapper's stats.

    Accounting matches :class:`~repro.sync.locks.SimLock`: a *request*
    is a blocking ``acquire`` or a successful ``try_acquire``; a
    *contention* is a request that could not be satisfied immediately;
    wait and hold times are microseconds on the runtime's clock
    (:attr:`NativeRuntime.now`), read here straight from
    :func:`time.monotonic` against the runtime's origin.

    Every :class:`~repro.sync.stats.LockStats` field but
    ``try_attempts`` and ``try_failures`` is written only by the holder,
    while it holds the ``threading.Lock`` the stats describe, so the
    lock's own acquire/release orders those writes and no increment is
    lost, with or without the GIL. A contended request is therefore
    counted when it is granted, not when it blocks. Only what a
    non-holder writes goes through the internal mutex: the waiter count
    and the two ``TryLock()`` counters. The one exception is the
    harness's warm-up snapshot (``_Window.begin`` in
    :mod:`repro.harness.experiment`), which resets
    ``window_max_hold_us`` and copies the stats without the lock.

    The grant and try costs are checked at construction, as on the
    simulator, and otherwise unused: real instructions take real time.
    """

    #: Non-blocking attempts one ``try_acquire`` makes before failing.
    SPIN_TRIES = 4

    def __init__(self, runtime: "NativeRuntime", name: str = "lock",
                 grant_cost_us: float = 0.0,
                 try_cost_us: float = 0.0) -> None:
        check_lock_costs(name, grant_cost_us, try_cost_us)
        self.runtime = runtime
        self.name = name
        self.stats = LockStats()
        self._lock = threading.Lock()
        #: Guards what a non-holder writes: ``_waiting`` and the
        #: ``try_attempts`` / ``try_failures`` counters.
        self._meta = threading.Lock()
        #: The runtime clock's zero, in :func:`time.monotonic` seconds.
        self._origin = runtime._origin
        #: The holding thread, or None: written by the holder on grant,
        #: cleared on release, read as a plain attribute.
        self.owner: Optional["NativeThread"] = None
        self._waiting = 0
        self._acquired_at = 0.0

    @property
    def held(self) -> bool:
        return self._lock.locked()

    @property
    def queue_length(self) -> int:
        """Threads currently blocked in :meth:`acquire` (approximate —
        read without the mutex; used for coherence-degradation scaling
        and diagnostics, where staleness of one update is harmless)."""
        return self._waiting

    def try_acquire(self, thread: "NativeThread") -> bool:
        """Spinning ``TryLock()``: a few non-blocking attempts with a
        short jittered busy-wait between them, then failure. Never
        deschedules — the property Fig. 4's batch-threshold path
        relies on."""
        acquire = self._lock.acquire
        got = acquire(False)
        if not got:
            rng = thread.rng
            for _ in range(self.SPIN_TRIES - 1):
                # Jittered pause (PAUSE-loop analogue): desynchronizes
                # spinners without giving up the processor.
                for _spin in range(rng.randrange(16, 64)):
                    pass
                got = acquire(False)
                if got:
                    break
        stats = self.stats
        with self._meta:
            stats.try_attempts += 1
            if not got:
                stats.try_failures += 1
        if got:
            self.owner = thread
            self._acquired_at = (_monotonic() - self._origin) * 1_000_000.0
            stats.requests += 1
            stats.acquisitions += 1
            return True
        observer = self.runtime.observer
        if observer is not None:
            observer.on_try_lock_failure(self.name, thread.name,
                                         self.runtime.now)
        return False

    def acquire(self, thread: "NativeThread") -> tuple:
        """Blocking ``Lock()``. Blocks the OS thread at call time and
        returns the empty iterable (``yield from`` convention)."""
        if self.owner is thread:
            raise LockError(
                f"thread {thread.name!r} re-acquired non-reentrant "
                f"lock {self.name!r}")
        if self._lock.acquire(False):
            self.owner = thread
            self._acquired_at = (_monotonic() - self._origin) * 1_000_000.0
            stats = self.stats
            stats.requests += 1
            stats.acquisitions += 1
            return _NO_EVENTS
        blocked_at = (_monotonic() - self._origin) * 1_000_000.0
        with self._meta:
            self._waiting += 1
            waiting = self._waiting
        observer = self.runtime.observer
        if observer is not None:
            observer.on_lock_contention(self.name, thread.name, blocked_at,
                                        waiting)
        self._lock.acquire()
        granted_at = (_monotonic() - self._origin) * 1_000_000.0
        self.owner = thread
        self._acquired_at = granted_at
        with self._meta:
            self._waiting -= 1
        stats = self.stats
        stats.requests += 1
        stats.contentions += 1
        stats.total_wait_us += granted_at - blocked_at
        stats.acquisitions += 1
        if observer is not None:
            observer.on_lock_wait(self.name, thread.name, blocked_at,
                                  granted_at)
        return _NO_EVENTS

    def release(self, thread: "NativeThread") -> None:
        if self.owner is not thread:
            owner = self.owner.name if self.owner else None
            raise LockError(
                f"thread {thread.name!r} released lock {self.name!r} "
                f"owned by {owner!r}")
        released_at = (_monotonic() - self._origin) * 1_000_000.0
        acquired_at = self._acquired_at
        hold = released_at - acquired_at
        stats = self.stats
        stats.total_hold_us += hold
        if hold > stats.max_hold_us:
            stats.max_hold_us = hold
        if hold > stats.window_max_hold_us:
            stats.window_max_hold_us = hold
        self.owner = None
        observer = self.runtime.observer
        if observer is not None:
            observer.on_lock_hold(self.name, thread.name, acquired_at,
                                  released_at, self._waiting)
        self._lock.release()


class NativePool:
    """Bookkeeping stand-in for :class:`~repro.simcore.cpu.ProcessorPool`.

    OS threads are scheduled by the kernel, so the pool only carries
    the processor-count label and aggregates *real* per-thread CPU time
    (``time.thread_time``) for the utilization report.
    """

    def __init__(self, runtime: "NativeRuntime", n_processors: int) -> None:
        if n_processors < 1:
            raise SimulationError(
                f"need at least one processor, got {n_processors}")
        self.runtime = runtime
        self.n_processors = n_processors
        self.busy_time = 0.0
        self._meta = threading.Lock()

    def note_cpu_seconds(self, seconds: float) -> None:
        """Fold one finished thread's CPU seconds into ``busy_time``."""
        with self._meta:
            self.busy_time += seconds * 1_000_000.0

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.n_processors)


class NativeDisk:
    """Wall-clock disk array: the k-server model of
    :class:`~repro.db.storage.DiskArray` on real threads.

    Up to ``concurrency`` transfers are in flight, each taking
    ``service_time_us``, but admission is a
    :class:`threading.Semaphore` and the service time is a real
    ``time.sleep``, so a native run's misses stall OS threads for
    genuine wall-clock I/O latency. It counts ``reads`` and ``writes``
    only; the simulator's disk also keeps service and queueing totals
    and can jitter the service time.

    ``time_scale`` shrinks the *slept* time — tests replay thousands of
    misses without waiting out thousands of real milliseconds. FIFO
    admission order is only as fair as the semaphore's wakeup order
    (CPython's is FIFO in practice); the accounting mutex makes the
    counters exact either way.
    """

    def __init__(self, runtime: "NativeRuntime", service_time_us: float,
                 concurrency: int, time_scale: float = 1.0) -> None:
        if concurrency < 1:
            raise SimulationError(
                f"disk array needs concurrency >= 1, got {concurrency}")
        if service_time_us <= 0:
            raise SimulationError(
                f"disk service time must be positive, got "
                f"{service_time_us}")
        if time_scale < 0:
            raise SimulationError(
                f"time scale must be >= 0, got {time_scale}")
        self.runtime = runtime
        self.service_time_us = service_time_us
        self.concurrency = concurrency
        self.time_scale = time_scale
        self._slots = threading.Semaphore(concurrency)
        self._meta = threading.Lock()
        self.reads = 0
        self.writes = 0

    def read(self, thread: "NativeThread") -> tuple:
        with self._meta:
            self.reads += 1
        return self._transfer()

    def write(self, thread: "NativeThread") -> tuple:
        with self._meta:
            self.writes += 1
        return self._transfer()

    def _transfer(self) -> tuple:
        with self._slots:
            if self.time_scale > 0:
                time.sleep(self.service_time_us * self.time_scale
                           / 1_000_000.0)
        return _NO_EVENTS


class NativeThread:
    """One OS thread exposing the :class:`ThreadContext` surface.

    Modeled CPU costs are neither kept nor slept: real instructions
    already took real time. The fixed ones land in :attr:`pending_us`,
    validated at construction, never read; :meth:`charge` only rejects
    a negative cost. ``rng`` is the per-thread seeded stream used for
    lock-spin jitter, so backoff is reproducible per seed even though
    the schedule is not.
    """

    def __init__(self, pool: NativePool, name: str = "thread",
                 seed: int = 0) -> None:
        self.pool = pool
        self.runtime = pool.runtime
        self.name = name
        self.rng = random.Random(seed)
        #: The sink of the fixed-cost adds (``pending_us += cost``).
        self.pending_us = 0.0
        self.error: Optional[BaseException] = None
        self._os_thread: Optional[threading.Thread] = None

    # -- cost accounting ---------------------------------------------------

    def charge(self, cost_us: float) -> None:
        if cost_us < 0:
            raise SimulationError(f"negative charge: {cost_us}")

    # -- blocking ----------------------------------------------------------

    def wait(self, event: NativeEvent) -> tuple:
        """Block on ``event`` (at call time); empty-iterable return."""
        if event.triggered:
            return _NO_EVENTS
        blocked_at = self.runtime.now
        event.wait()
        observer = self.runtime.observer
        if observer is not None:
            observer.on_thread_block(self.name, blocked_at, self.runtime.now)
        return _NO_EVENTS

    def sleep_blocked(self, duration_us: float) -> tuple:
        time.sleep(duration_us / 1_000_000.0)
        return _NO_EVENTS

    def yield_cpu(self) -> tuple:
        # sched_yield analogue: gives the GIL (and the core) away so
        # peers make progress at transaction boundaries.
        time.sleep(0)
        return _NO_EVENTS

    # -- lifecycle ----------------------------------------------------------

    def start(self, body: Generator[Any, Any, Any]) -> threading.Thread:
        if self._os_thread is not None:
            raise SimulationError(f"thread {self.name!r} already started")
        self._os_thread = threading.Thread(
            target=self._drive, args=(body,), name=self.name, daemon=True)
        self._os_thread.start()
        return self._os_thread

    def _drive(self, body: Generator[Any, Any, Any]) -> None:
        started = time.thread_time()
        try:
            for waited in body:
                raise SimulationError(
                    f"native thread {self.name!r} yielded {waited!r}; "
                    "only sim bodies yield real events")
        except BaseException as exc:  # surfaced by the runner after join
            self.error = exc
        finally:
            self.pool.note_cpu_seconds(time.thread_time() - started)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Join the OS thread; True when it finished within ``timeout``."""
        if self._os_thread is None:
            return True
        self._os_thread.join(timeout)
        return not self._os_thread.is_alive()


class NativeRuntime:
    """Wall-clock runtime: monotonic microsecond clock + factories."""

    name = "native"
    #: Modeled costs are never realized: real instructions take real
    #: time (see :class:`NativeThread`).
    realizes_costs = False

    def __init__(self, observer: Optional[Any] = None) -> None:
        self._origin = time.monotonic()
        #: Obs attachment point; wrap with :class:`ThreadSafeObserver`
        #: before handing it to concurrent threads.
        self.observer = observer
        #: Always None: the correctness checker shadows the sim lock
        #: protocol (the run driver rejects the combination).
        self.checker = None

    @property
    def now(self) -> float:
        """Microseconds since runtime construction (monotonic)."""
        return (time.monotonic() - self._origin) * 1_000_000.0

    def event(self) -> NativeEvent:
        return NativeEvent()

    def create_lock(self, name: str = "lock", grant_cost_us: float = 0.0,
                    try_cost_us: float = 0.0) -> NativeLock:
        return NativeLock(self, name, grant_cost_us=grant_cost_us,
                          try_cost_us=try_cost_us)

    def create_pool(self, n_processors: int,
                    context_switch_us: float = 0.0) -> NativePool:
        """``context_switch_us`` is ignored: the kernel switches."""
        return NativePool(self, n_processors)

    def create_thread(self, pool: NativePool, name: str = "thread",
                      seed: int = 0) -> NativeThread:
        return NativeThread(pool, name=name, seed=seed)

    def create_disk(self, service_time_us: float, concurrency: int,
                    seed: int = 0) -> NativeDisk:
        """``seed`` is ignored: the native disk does not jitter."""
        return NativeDisk(self, service_time_us, concurrency)

    def prepare(self, manager: Any) -> None:
        """Check that a freshly built pool is safe for OS threads.

        A lock-free-hit policy must have a race-tolerant
        ``on_hit_relaxed`` path (``pgclock``'s hits run through it).
        Pin/unpin need nothing here: they are atomic list operations
        on every runtime (see :mod:`repro.bufmgr.descriptors`).
        """
        policy = manager.policy
        if (policy.lock_discipline is LockDiscipline.LOCK_FREE_HIT
                and not hasattr(policy, "on_hit_relaxed")):
            raise ConfigError(
                f"policy {policy.name!r} mutates shared state without the "
                "lock on hits and has no race-tolerant on_hit_relaxed path; "
                "that combination is only safe under the simulator")

    def mutex(self) -> Any:
        """A plain mutex for harness-level shared counters."""
        return threading.Lock()

    def join(self, threads, daemons, budget_us: float) -> None:
        """Join ``threads``, then stop and join ``daemons``.

        ``budget_us`` bounds *wall-clock* microseconds — the deadlock
        guard: anything still alive past it raises
        :class:`~repro.errors.SimulationError` naming the stuck
        threads. Otherwise the first error a thread died of is
        re-raised.
        """
        deadline = time.monotonic() + budget_us / 1_000_000.0
        stuck = []
        for thread in threads:
            remaining = deadline - time.monotonic()
            if not thread.join(timeout=max(0.0, remaining)):
                stuck.append(thread.name)
        for daemon in daemons:
            # The bodies have stopped (or are stuck); either way the
            # daemon must exit at its next wakeup — one interval.
            daemon.stop()
            grace = max(0.0, deadline - time.monotonic()) \
                + 2 * daemon.interval_us / 1_000_000.0
            if not daemon.thread.join(timeout=grace):
                stuck.append(daemon.thread.name)
        if stuck:
            raise wall_budget_exceeded("native", budget_us, stuck)
        for thread in [*threads, *(daemon.thread for daemon in daemons)]:
            if thread.error is not None:
                raise thread.error


class ThreadSafeObserver:
    """Serializes every hook of a :class:`repro.obs.Observer`.

    The obs layer's recorder/metrics are single-threaded by design
    (the simulator never runs two callbacks at once). Under the native
    backend, hooks fire from many OS threads concurrently, so this
    proxy funnels every *callable* attribute through one mutex —
    keeping the obs/metrics layer itself unchanged on both backends.
    Non-callable attributes (``metrics``, ``trace``) pass through;
    read them only after the worker threads have been joined.
    """

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self._hook_mutex = threading.Lock()

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        mutex = self._hook_mutex

        def locked(*args: Any, **kwargs: Any) -> Any:
            with mutex:
                return attr(*args, **kwargs)

        # Cache the bound wrapper so each hook pays the getattr once.
        object.__setattr__(self, name, locked)
        return locked
