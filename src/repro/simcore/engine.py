"""Core discrete-event simulation engine.

The engine follows the classic event-list design: a priority queue of
``(time, sequence, callback, argument)`` entries, popped in order, with
simulated time jumping from entry to entry. User code is written as
Python generators ("processes") that ``yield`` :class:`Event` objects
when they need to wait, in the style popularized by SimPy.

Example::

    sim = Simulator()

    def worker(sim):
        yield Timeout(sim, 5.0)
        print("woke at", sim.now)

    sim.spawn(worker(sim))
    sim.run()

Design notes
------------
* **Determinism.** Every heap entry carries a monotonically increasing
  sequence number used to break timestamp ties, so the execution order
  of simultaneous events is fully reproducible. Every push goes through
  :meth:`Simulator._schedule`.
* **No wall-clock anywhere.** The simulator never consults real time;
  the reproduction's entire point is that contention is measured in
  simulated microseconds, immune to the GIL.
* **Processes are events.** A :class:`Process` is itself an
  :class:`Event` that triggers when its generator finishes, so processes
  can wait on each other (``yield child_process``).
* **One heap entry per wake-up.** A heap entry calls its callback with
  its one argument. An event with a single waiter resumes it from one
  entry at the ``(time, seq)`` a dispatch would have taken, and an
  event nobody waits on schedules nothing. Besides events, a process
  may yield a bare float (a private delay: one entry that resumes it)
  or :data:`PARKED` (it arranged its own resume: an entry that calls
  ``Process._resume`` directly, pushed by a wake or a timer; see
  :meth:`repro.simcore.cpu.CpuBoundThread.park`).
* **In-place advance.** A CPU charge whose wake time is strictly
  earlier than every queued entry, and not past the run's horizon
  (``until``), may move ``_now`` itself instead of yielding a float
  delay (see :meth:`repro.simcore.cpu.CpuBoundThread.spend`): the heap
  round trip would have popped that very entry next, so the order of
  everything else is untouched. ``run`` publishes the horizon in
  ``_horizon`` (``-inf`` outside ``run``, under a ``max_events``
  budget, and while sibling callbacks of one dispatch are still due),
  and each advance counts as one processed event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "Process", "AnyOf", "AllOf", "Simulator",
           "PARKED"]

#: What a process yields when something else will resume it: a heap
#: entry targeting its ``Process._resume`` (a wake or a timer).
PARKED = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*; calling :meth:`succeed` (or
    :meth:`fail`) schedules it to fire at the current simulated time,
    which resumes every process that yielded it. Events may only be
    triggered once.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_value", "_exception",
                 "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        # Set when some process consumed (or will consume) this event's
        # outcome outside the callbacks list, so a failure is not
        # re-raised from the dispatch loop as "unhandled".
        self._defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired (or is queued to fire)."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, waking waiters at ``sim.now``.

        Waiters must be registered before the event is triggered: a
        lone waiter is resumed from one heap entry at the ``(time,
        seq)`` the dispatch would have taken, and an event nobody waits
        on schedules nothing.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        callbacks = self.callbacks
        if len(callbacks) == 1:
            self.sim._schedule(0.0, callbacks.pop(), self)
        elif callbacks:
            self.sim._schedule(0.0, Event._dispatch, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(0.0, Event._dispatch, self)
        return self

    def _dispatch(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        if len(callbacks) > 1:
            # The later callbacks are due at `now` but sit outside the
            # heap, so no process may advance the clock in place until
            # the last one runs.
            sim = self.sim
            horizon, sim._horizon = sim._horizon, -inf
            try:
                for callback in callbacks[:-1]:
                    callback(self)
            finally:
                sim._horizon = horizon
            callbacks[-1](self)
        elif callbacks:
            callbacks[0](self)
        elif self._exception is not None and not self._defused:
            # Nobody waited on this failure and nobody ever consumed
            # it: surface it exactly once from Simulator.run instead of
            # losing it. Waiters receive the exception through their
            # callbacks and the loop keeps running.
            raise self._exception


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        sim._schedule(delay, Timeout._fire, self)

    def _fire(self) -> None:
        self._triggered = True
        callbacks = self.callbacks
        if len(callbacks) == 1:
            callbacks.pop()(self)
        elif callbacks:
            self._dispatch()


class AnyOf(Event):
    """Fires when the first of ``events`` fires; value is that event."""

    __slots__ = ("_done",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._done = False
        pending = list(events)
        if not pending:
            raise SimulationError("AnyOf requires at least one event")
        # Scan for an already-triggered input first: if one exists the
        # combinator short-circuits and must register NO callbacks at
        # all — registering on the events scanned before the triggered
        # one would leave stale callbacks behind inconsistently.
        for event in pending:
            if event._triggered:
                event._defused = True
                self._on_child(event)
                return
        for event in pending:
            event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if not self._done:
            self._done = True
            self.succeed(event)


class AllOf(Event):
    """Fires when every one of ``events`` has fired."""

    __slots__ = ("_remaining",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        pending = []
        for event in events:
            if event._triggered:
                event._defused = True  # outcome consumed here
            else:
                pending.append(event)
        self._remaining = len(pending)
        if self._remaining == 0:
            self.succeed()
            return
        for event in pending:
            event.callbacks.append(self._on_child)

    def _on_child(self, _event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()


ProcessBody = Generator[Any, Any, Any]


class Process(Event):
    """Drives a generator, suspending it on each yielded :class:`Event`.

    A body may also yield a bare float, a private delay resumed by one
    heap entry (no :class:`Event`, no callbacks list), or
    :data:`PARKED`, when it has itself arranged for a heap entry to
    call :meth:`_resume`. The process itself is an event that triggers
    with the generator's return value when it finishes, so ``yield
    some_process`` waits for completion.
    """

    __slots__ = ("name", "_body", "_alive")

    def __init__(self, sim: "Simulator", body: ProcessBody,
                 name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(body, "send"):
            raise SimulationError(
                f"Process body must be a generator, got {type(body).__name__}"
            )
        self.name = name or getattr(body, "__name__", "process")
        self._body = body
        self._alive = True
        sim._schedule(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._alive

    def _resume(self, waited: Optional[Event]) -> None:
        if not self._alive:
            return
        try:
            if waited is not None and waited._exception is not None:
                target = self._body.throw(waited._exception)
            else:
                value = waited._value if waited is not None else None
                target = self._body.send(value)
        except StopIteration as stop:
            self._alive = False
            self.succeed(stop.value)
            return
        except BaseException as exc:
            # Fail the process event only. Re-raising here as well
            # would deliver the error twice — once to waiters and once
            # straight into the dispatch loop, tearing down unrelated
            # queued work even when a waiter handles it. Failures
            # nobody waits on surface once, from Event._dispatch.
            self._alive = False
            self.fail(exc)
            return
        if target.__class__ is float:
            # Hot path: a private delay (charge/spend) resumes this
            # process directly — no Event, no callbacks list, one heap
            # entry, same timestamps and tie-break order a Timeout
            # would have produced.
            self.sim._schedule(target, self._resume, None)
            return
        if target is PARKED:
            return
        if not isinstance(target, Event):
            self._alive = False
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}; processes "
                "may only yield an Event, a float delay or PARKED"
            ))
            return
        if target._triggered:
            # The event already fired (e.g. an immediate Timeout(0) or a
            # completed process): resume on the next dispatch slot so
            # simultaneous events still run in deterministic order.
            target._defused = True
            self.sim._schedule(0.0, self._resume, target)
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """Owner of the event heap and the simulated clock.

    ``observer`` is the observability layer's attachment point
    (:mod:`repro.obs`): instrumented components — locks, the processor
    pool, the buffer manager — read it and emit trace/metric records
    only when it is not ``None``. It must be attached before the
    components are constructed and never swapped mid-run; the dispatch
    loop itself never consults it, so the disabled-mode engine is
    byte-for-byte the uninstrumented one.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable[[Any], Any], Any]] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        #: Latest wake time a charge may realise in place (see the
        #: design notes); -inf disables in-place advance.
        self._horizon = -inf
        #: Attached :class:`repro.obs.observer.Observer`, or None (off).
        self.observer = None
        #: Attached :class:`repro.check.CorrectnessChecker`, or None
        #: (off). Same contract as ``observer``: instrumented
        #: components (locks, handlers, the buffer manager) read it and
        #: call validation hooks only when it is not None, so a
        #: checker-less run pays one attribute load per already-slow
        #: protocol transition and nothing on the charge/spend path.
        self.checker = None

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by package convention)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of heap entries popped plus in-place advances so far
        (diagnostics only)."""
        return self._events_processed

    def _schedule(self, delay: float, callback: Callable[[Any], Any],
                  arg: Any) -> None:
        """Push the one heap entry that calls ``callback(arg)`` after
        ``delay``: every push goes through here."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, callback, arg))

    def timeout(self, delay: float) -> Timeout:
        """Convenience constructor for :class:`Timeout`."""
        return Timeout(self, delay)

    def event(self) -> Event:
        """Convenience constructor for a bare :class:`Event`."""
        return Event(self)

    def create_lock(self, name: str = "lock", grant_cost_us: float = 0.0,
                    try_cost_us: float = 0.0):
        """Construct a :class:`~repro.sync.locks.SimLock` on this engine.

        Part of the :class:`repro.runtime.base.Runtime` protocol: lower
        layers (hash table, system builders) obtain locks through the
        runtime instead of naming a backend's lock class, so the same
        call sites work under the native backend. Imported lazily —
        ``repro.sync`` depends on the engine's *protocol*, not the
        other way around.
        """
        from repro.sync.locks import SimLock
        return SimLock(self, name=name, grant_cost_us=grant_cost_us,
                       try_cost_us=try_cost_us)

    # -- Runtime lifecycle (the twins of NativeRuntime's) --------------------
    # Imports are lazy for the same reason as create_lock's: cpu and
    # storage are built on this module.

    def create_pool(self, n_processors: int,
                    context_switch_us: float = 0.0):
        """A :class:`~repro.simcore.cpu.ProcessorPool` on this engine."""
        from repro.simcore.cpu import ProcessorPool
        return ProcessorPool(self, n_processors, context_switch_us)

    def create_thread(self, pool, name: str = "thread", seed: int = 0):
        """A :class:`~repro.simcore.cpu.CpuBoundThread` on ``pool``.

        ``seed`` is the native backend's lock-spin jitter stream; a
        simulated thread draws no randomness of its own.
        """
        from repro.simcore.cpu import CpuBoundThread
        return CpuBoundThread(pool, name=name)

    def create_disk(self, service_time_us: float, concurrency: int,
                    seed: int = 0):
        """A simulated :class:`~repro.db.storage.DiskArray`."""
        from repro.db.storage import DiskArray
        return DiskArray(self, service_time_us, concurrency, seed=seed)

    def prepare(self, manager) -> None:
        """Nothing to do: events are atomic between yields, so a pool
        needs no header locks and any lock discipline is safe."""

    def mutex(self):
        """None — shared counters need no guard under the simulator."""
        return None

    def join(self, threads, daemons, budget_us: float) -> None:
        """Run the event loop until it drains or ``budget_us`` of
        simulated time has passed (the safety net for pathological
        configurations). Daemons need no stopping here: they poll the
        run's stop flag in simulated time. If a body raises, every
        thread is aborted (:meth:`CpuBoundThread.abort`) and the
        exception propagates."""
        try:
            self.run(until=budget_us)
        except BaseException:
            # A body failed and the run stops here: close every other
            # thread where it is parked, so its close-safe sections
            # (pins; lock, ready and disk queues) unwind instead of
            # staying held.
            for thread in [*threads, *(daemon.thread for daemon in daemons)]:
                thread.abort()
            raise
        if self.checker is not None and self._now < budget_us:
            # The event queue drained: every thread reached quiescence,
            # so leftover lock waiters would mean a lost wakeup.
            self.checker.finalize()

    def spawn(self, body: ProcessBody, name: str = "") -> Process:
        """Start a new process driving ``body``."""
        return Process(self, body, name=name)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the heap drains, ``until`` is reached, or the event
        budget ``max_events`` is spent. Returns the final simulated time.

        When stopped by ``until``, the clock is advanced exactly to
        ``until`` and any events at later timestamps stay queued. A
        ``max_events`` budget disables in-place advance, so it counts
        heap events exactly.
        """
        # Localized binds: the loop body runs once per simulated event
        # (hundreds of millions per grid), so every attribute lookup
        # shaved here is measurable. `events_processed` is accumulated
        # locally and folded back on exit (it is diagnostics-only).
        heap = self._heap
        pop = heappop
        processed = 0
        if max_events is None:
            self._horizon = inf if until is None else until
        try:
            while heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self._now = until
                    return until
                if max_events is not None and processed >= max_events:
                    return self._now
                entry = pop(heap)
                self._now = when
                processed += 1
                entry[2](entry[3])
        finally:
            self._events_processed += processed
            self._horizon = -inf
        # When the heap drains the clock stays at the last event: the
        # harness reads `now` as "when the work actually finished", and
        # `until` is only a cap.
        return self._now

    def peek(self) -> Optional[float]:
        """Timestamp of the next queued event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None
