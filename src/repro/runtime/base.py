"""Runtime protocols — what the BP-Wrapper core actually needs.

Everything below :mod:`repro.harness` (the lock, the handlers, the
buffer manager) is written against the *narrow* structural interfaces
defined here, not against the discrete-event simulator. Two adapters
implement them:

* :class:`repro.simcore.engine.Simulator` — the deterministic
  simulator backend satisfies :class:`Runtime` itself; blocking
  operations are generators that yield engine events, and simulated
  time is advanced by the event loop.
* :mod:`repro.runtime.native` — real OS threads
  (:mod:`threading`); blocking operations block the calling thread at
  call time and return an *empty* iterable, so the very same
  ``yield from`` core code runs inline to completion.

(:mod:`repro.runtime.mp` implements just the lifecycle the harness
driver calls; its threads are worker processes.)

That empty-iterable convention is the bridge that lets one body of
generator code drive both backends: ``yield from lock.acquire(thread)``
suspends the simulated process in the sim backend, while in the native
backend ``acquire`` has already blocked-and-returned by the time the
(empty) delegation happens. Where nothing can wait, the core skips the
generator altogether: a hit that cannot wait is a plain call
(:meth:`~repro.bufmgr.manager.BufferManager.request`), and only a
request that may wait hands back a generator continuation.

The protocols are deliberately minimal — ``MutexLock`` is the
paper's ``Lock()``/``TryLock()`` pair with
:class:`~repro.sync.stats.LockStats`, ``ThreadContext`` is the charge/
wait/yield surface both backends' threads share (``spend``, which
realizes charges as time, is the simulator thread's own), and a
:class:`Runtime` is the clock (``now``) plus the two factories lower
layers need (bare events and locks), the ``observer``/``checker``
attachment points, ``realizes_costs`` (whether accumulated costs
become time; a pool's handler and the manager read it, to drop the
``spend`` calls and cost modelling nothing would see), and the run lifecycle
the harness driver (:mod:`repro.harness.driver`) walks: pool, thread
and disk factories, ``prepare``, ``mutex`` and ``join``. The
observer's hooks are those of :class:`repro.obs.observer.Observer`.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Generator, Iterable, Optional,
                    Protocol, Sequence, runtime_checkable)

from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:
    from repro.sync.stats import LockStats

__all__ = [
    "Wait",
    "Waits",
    "WaitEvent",
    "MutexLock",
    "ThreadContext",
    "Daemon",
    "Runtime",
    "check_lock_costs",
    "wall_budget_exceeded",
]

#: What a blocking generator yields: under the sim backend a bare float
#: (a private delay) or the ``PARKED`` marker (a parked thread, resumed
#: by a wake or its own timer); nothing at all under the native one.
Wait = Any

#: Return annotation for the core's blocking generator methods.
Waits = Generator[Wait, Any, Any]


@runtime_checkable
class WaitEvent(Protocol):
    """A one-shot occurrence a thread can block on (``io_done`` etc.)."""

    @property
    def triggered(self) -> bool: ...

    def succeed(self) -> "WaitEvent":
        """Fire the event, waking every thread blocked on it."""


@runtime_checkable
class MutexLock(Protocol):
    """The paper's exclusive latch: blocking ``Lock()`` + ``TryLock()``.

    ``acquire`` follows the blocking-generator convention (drive it
    with ``yield from``); ``try_acquire`` and ``release`` are plain
    calls. ``stats`` is a live :class:`~repro.sync.stats.LockStats`
    that both backends keep with identical semantics: a *request* is a
    blocking acquire or a successful try, a *contention* is a request
    that could not be satisfied immediately.
    """

    name: str
    stats: "LockStats"
    #: The holding thread, or None: a plain attribute the holder
    #: writes on grant and clears on release.
    owner: Optional["ThreadContext"]

    @property
    def held(self) -> bool: ...

    @property
    def queue_length(self) -> int:
        """Number of threads currently blocked waiting for the lock."""

    def try_acquire(self, thread: "ThreadContext") -> bool: ...

    def acquire(self, thread: "ThreadContext") -> Iterable[Wait]: ...

    def release(self, thread: "ThreadContext") -> None: ...


@runtime_checkable
class ThreadContext(Protocol):
    """One transaction-processing thread as the core sees it.

    CPU costs are *accumulated* in :attr:`pending_us`. A cost
    validated non-negative when its owner was built (every
    :class:`~repro.hardware.costs.CostModel` constant, a lock's grant
    and try costs) is a plain ``thread.pending_us += cost``; any other
    value goes through :meth:`charge`, which rejects a negative cost
    first. Blocking operations — :meth:`wait`, :meth:`sleep_blocked`,
    :meth:`yield_cpu` — are blocking generators.

    ``runtime`` points back at the owning :class:`Runtime`, which is
    how instrumented code reaches the clock and the observer/checker
    without importing a backend. What turns the sum into time is not
    here: the simulator's thread realizes it with its own ``yield from
    thread.spend()`` (and ``run_for``), which code calls only where
    :attr:`Runtime.realizes_costs` holds, and settles each access with
    its own ``maybe_yield``. A native thread keeps no simulated time:
    real instructions already took real time, and it has neither.
    """

    name: str
    runtime: "Runtime"
    #: Accumulated CPU work in µs (write-only on the native backend).
    pending_us: float

    def charge(self, cost_us: float) -> None: ...

    def wait(self, event: WaitEvent) -> Waits: ...

    def sleep_blocked(self, duration_us: float) -> Waits: ...

    def yield_cpu(self) -> Iterable[Wait]: ...


class Daemon(Protocol):
    """A background thread that outlives no run (bgwriter, sampler).

    It polls the run's stop flag every ``interval_us``;
    :meth:`Runtime.join` calls :meth:`stop` once the bodies are done
    and grants it that interval to notice.
    """

    thread: ThreadContext
    interval_us: float

    def stop(self) -> None: ...


@runtime_checkable
class Runtime(Protocol):
    """The full backend surface: a clock, the factories, the lifecycle.

    ``observer`` / ``checker`` are the obs and correctness attachment
    points (None = off). Both backends implement :meth:`event` and
    :meth:`create_lock` so no layer below the harness ever constructs
    a backend-specific primitive by name; the remaining methods are
    the steps of one run, in the order the harness driver takes them,
    so no tier names a backend either.
    """

    observer: Optional[Any]
    checker: Optional[Any]
    #: Whether ``thread.pending_us`` becomes time: True on the
    #: simulator; False on native, where real instructions already
    #: took real time, nothing reads the sum and every blocking call
    #: blocks at call time. Fixed per backend.
    realizes_costs: bool

    @property
    def now(self) -> float:
        """Current time in µs (sim: simulated; native and mp: wall)."""

    def event(self) -> WaitEvent: ...

    def create_lock(self, name: str = "lock", grant_cost_us: float = 0.0,
                    try_cost_us: float = 0.0) -> MutexLock: ...

    def create_pool(self, n_processors: int,
                    context_switch_us: float = 0.0) -> Any:
        """The processors the run's threads are multiplexed over."""

    def create_thread(self, pool: Any, name: str = "thread",
                      seed: int = 0) -> ThreadContext: ...

    def create_disk(self, service_time_us: float, concurrency: int,
                    seed: int = 0) -> Any:
        """The k-server disk model (simulated events or real sleeps)."""

    def prepare(self, manager: Any) -> None:
        """Make a freshly built pool safe to run on this backend, or
        raise :class:`~repro.errors.ConfigError` if it cannot be."""

    def mutex(self) -> Optional[Any]:
        """A guard for harness-level shared state; None where events
        are atomic and none is needed."""

    def join(self, threads: Iterable[ThreadContext],
             daemons: Iterable[Daemon], budget_us: float) -> None:
        """Run ``threads`` to completion within ``budget_us`` (sim:
        simulated; native and mp: wall-clock, raising
        :func:`wall_budget_exceeded` on stuck threads), then stop
        ``daemons`` and surface the first thread error."""


def drive(body: Generator[Wait, Any, Any]) -> Any:
    """Run a blocking-generator body inline to completion.

    Under the native backend no step ever actually yields (every
    delegated iterable is empty), so exhausting the generator executes
    it synchronously on the calling OS thread. Returns the generator's
    return value. Used by the native experiment runner, the mp workers
    and the cross-runtime replay driver; driving a *sim* body this way
    would raise at the first real event, which is the desired loud
    failure.
    """
    try:
        waited = next(body)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(
        f"native drive got a real wait {waited!r}; this body can only "
        "run under the simulator")


def wall_budget_exceeded(runtime: str, budget_us: float,
                         alive: Sequence[str]) -> SimulationError:
    """What native's and mp's ``join`` raise when ``alive`` threads
    outlast the run's wall-clock budget (the deadlock guard)."""
    return SimulationError(
        f"{runtime} run exceeded its {budget_us / 1e6:.0f}s wall budget; "
        f"threads still alive: {', '.join(alive)} (possible deadlock)")


def check_lock_costs(name: str, grant_cost_us: float,
                     try_cost_us: float) -> None:
    """Reject a negative grant or try cost when a lock is built.

    ``SimLock`` adds them to ``thread.pending_us`` unchecked;
    ``NativeLock`` never adds them but rejects the same values, so a
    configuration is valid on both runtimes or on neither."""
    for field, value in (("grant_cost_us", grant_cost_us),
                         ("try_cost_us", try_cost_us)):
        if value < 0:
            raise ConfigError(
                f"lock {name!r}: {field} must be >= 0, got {value}")
