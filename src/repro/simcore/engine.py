"""Core discrete-event simulation engine: a heap of wake-ups.

The engine follows the classic event-list design: a priority queue of
``(time, sequence, target)`` entries, popped in order, with simulated
time jumping from entry to entry. Each entry resumes exactly one thing:
a :class:`Process`, which the run loop resumes itself, or a plain
callback (a timer), which it calls. User code is written as Python
generators ("processes") that yield when they need to wait: a bare
float is a private delay, and :data:`PARKED` means something else will
resume the process.

Example::

    sim = Simulator()

    def worker(sim):
        yield 5.0
        print("woke at", sim.now)

    sim.spawn(worker(sim))
    sim.run()

Design notes
------------
* **Determinism.** Every heap entry carries a monotonically increasing
  sequence number used to break timestamp ties, so the execution order
  of simultaneous wake-ups is fully reproducible. A process's float
  delay is pushed inline by whatever resumed it (:meth:`Simulator.run`,
  or :meth:`Process._resume` for a timer), and a wake by
  :meth:`~repro.simcore.cpu.CpuBoundThread.wake`; every other push (a
  spawn, a timer) goes through :meth:`Simulator._schedule`. Each takes
  the next sequence number.
* **No wall-clock anywhere.** The simulator never consults real time;
  the reproduction's entire point is that contention is measured in
  simulated microseconds, immune to the GIL.
* **Three kinds of blocking point.** A thread waits on a float delay
  (a charge realised through the heap), on a ``park()`` ended by one
  ``wake()`` (a processor slot, a lock wakeup, a disk slot, a timer),
  or on an :class:`Event` (a miss's ``io_done``), whose ``succeed()``
  wakes every parked waiter in the order they parked, one entry each.
  See :mod:`repro.simcore.cpu`.
* **Failures propagate.** An exception raised by a process body leaves
  :meth:`Simulator.run` at once; a finished body starts the process's
  next body in the same step, and the last one schedules nothing.
* **In-place advance.** A CPU charge whose wake time is strictly
  earlier than every queued entry, and not past the run's horizon
  (``until``), may move ``_now`` itself instead of yielding a float
  delay (see :meth:`repro.simcore.cpu.CpuBoundThread.spend`): the heap
  round trip would have popped that very entry next, so the order of
  everything else is untouched. ``run`` publishes the horizon in
  ``_horizon`` (``-inf`` outside ``run``), and each advance counts as
  one processed event.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "Process", "Simulator", "PARKED"]

#: What a process yields when something else will resume it: a wake
#: (a heap entry holding the process) or a timer that resumes it.
PARKED = object()


class Event:
    """A one-shot occurrence several threads can wait on.

    ``waiters`` holds the threads parked on the event (see
    :meth:`repro.simcore.cpu.CpuBoundThread.park`), in the order they
    parked. :meth:`succeed` wakes them in that order, each at ``(now,
    next seq)``; an event nobody waits on schedules nothing.
    """

    __slots__ = ("waiters", "_triggered")

    def __init__(self) -> None:
        self.waiters: List[Any] = []
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    def succeed(self) -> "Event":
        """Fire the event, waking every parked waiter in park order."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        waiters, self.waiters = self.waiters, []
        for thread in waiters:
            thread.wake()
        return self


ProcessBody = Generator[Any, None, Any]


class Process:
    """Drives ``body``, then each of ``then``, from heap entries.

    A body yields a bare float, a private delay, or :data:`PARKED`,
    when something else (a wake or a timer) will resume it. A heap
    entry holding the process resumes the current body:
    :meth:`Simulator.run` sends into it itself and pushes a float delay
    back as ``(now + delay, next seq, process)``. :meth:`_resume` is
    the same step for a callback (a timer). A finished body's
    successor starts in that same step (:meth:`_next_body`).
    """

    __slots__ = ("sim", "name", "_body", "_then", "_alive")

    def __init__(self, sim: "Simulator", body: ProcessBody,
                 name: str = "", then: Tuple[ProcessBody, ...] = ()
                 ) -> None:
        for each in (body, *then):
            if not hasattr(each, "send"):
                raise SimulationError(
                    "Process body must be a generator, got "
                    f"{type(each).__name__}")
        self.sim = sim
        self.name = name or getattr(body, "__name__", "process")
        self._body = body
        self._then = iter(then)
        self._alive = True
        sim._schedule(0.0, self)

    @property
    def alive(self) -> bool:
        """Whether the last body has not yet finished."""
        return self._alive

    def _resume(self) -> None:
        """Resume the body outside the run loop's own step (a timer)."""
        if not self._alive:
            return
        try:
            target = self._body.send(None)
        except StopIteration:
            target = self._next_body()
        except BaseException:
            self._alive = False
            raise
        if target.__class__ is float:
            # The run loop's inline push (Simulator.run).
            sim = self.sim
            if target < 0:
                sim._schedule(target, self)  # raises
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim._now + target, seq, self))
        elif target is not PARKED:
            raise self._bad_yield(target)

    def _next_body(self) -> Any:
        """The current body finished: start the next one in this same
        step. Returns what it yields first, or :data:`PARKED` (nothing
        to push) once the last body has finished."""
        for body in self._then:
            self._body = body
            try:
                return body.send(None)
            except StopIteration:
                continue
            except BaseException:
                self._alive = False
                raise
        self._alive = False
        return PARKED

    def _bad_yield(self, target: Any) -> SimulationError:
        """Mark the process dead; the error for a yield that is neither
        a float delay nor :data:`PARKED`."""
        self._alive = False
        return SimulationError(
            f"process {self.name!r} yielded {target!r}; processes "
            "may only yield a float delay or PARKED")


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

    #: Accumulated charges become simulated time (Runtime protocol).
    realizes_costs = True

    def __init__(self) -> None:
        #: ``(time, seq, target)``: ``target`` is a :class:`Process`
        #: (resumed by the run loop) or a callback (called).
        self._heap: List[Tuple[float, int, Any]] = []
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

    def _schedule(self, delay: float,
                  target: "Process | Callable[[], Any]") -> None:
        """Push the one heap entry that resumes ``target`` (a
        :class:`Process`) or calls it (a callback) after ``delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, target))

    def event(self) -> Event:
        """Convenience constructor for a bare :class:`Event`."""
        return Event()

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
        """Nothing to do: events are atomic between yields, so any
        lock discipline is safe."""

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

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or ``until`` is reached. Returns
        the final simulated time.

        When stopped by ``until``, the clock is advanced exactly to
        ``until`` and any entries at later timestamps stay queued. An
        exception raised by a process body propagates from here.

        A process entry is resumed here, not through
        :meth:`Process._resume`: a wake-up costs the body's own frames
        and nothing else, and its float delay is pushed inline.
        """
        # Localized binds: the loop body runs once per heap entry
        # (hundreds of millions per grid), so every attribute lookup
        # shaved here is measurable. `events_processed` is accumulated
        # locally and folded back on exit (it is diagnostics-only).
        heap = self._heap
        pop = heappop
        push = heappush
        process_class = Process
        parked = PARKED
        processed = 0
        self._horizon = limit = inf if until is None else until
        try:
            while heap:
                when = heap[0][0]
                if when > limit:
                    self._now = until
                    return until
                entry = pop(heap)
                self._now = when
                processed += 1
                process = entry[2]
                if process.__class__ is not process_class:
                    process()  # a timer or another plain callback
                    continue
                # Process._resume, inlined.
                if not process._alive:
                    continue
                try:
                    target = process._body.send(None)
                except StopIteration:
                    target = process._next_body()
                except BaseException:
                    process._alive = False
                    raise
                if target.__class__ is float:
                    if target < 0:
                        self._schedule(target, process)  # raises
                    # The body may have moved the clock in place: the
                    # delay runs from the current time, not from `when`.
                    self._seq = seq = self._seq + 1
                    push(heap, (self._now + target, seq, process))
                elif target is not parked:
                    raise process._bad_yield(target)
        finally:
            self._events_processed += processed
            self._horizon = -inf
        # When the heap drains the clock stays at the last entry: the
        # harness reads `now` as "when the work actually finished", and
        # `until` is only a cap.
        return self._now
