"""Processor pool and CPU-bound thread model.

This module models the machine the paper runs on: ``P`` identical
processors multiplexed over more-than-``P`` transaction-processing
threads (the paper keeps the system *overcommitted* so the processors
are always busy, §IV-C).

The scheduling model is deliberately simple but captures the phenomena
the paper measures:

* A thread occupies a processor while it computes.
* When a thread blocks (lock wait, disk I/O) it **releases its
  processor**, and the next ready thread is dispatched after paying a
  context-switch cost — exactly the paper's definition of a lock
  contention event ("a lock request cannot be immediately satisfied and
  a process context switch occurs").
* When a blocked thread is woken it re-enters the ready queue and pays
  the context-switch cost again when dispatched.
* Threads voluntarily yield at transaction boundaries so ready peers
  are not starved (PostgreSQL back-ends yield at syscalls; a quantum
  would model the same fairness with more events).

Charges vs. time
----------------
CPU costs are *accumulated* in :attr:`CpuBoundThread.pending_us` and
realized as a single simulated-time advance at the next yield point.
This batching of micro-costs keeps the event count (and therefore the
simulator's wall-clock cost) proportional to the number of *blocking
points*, not the number of cost constants, without changing any
simulated timestamp that matters: nothing can observe a thread midway
through a straight-line compute sequence.

A cost taken from the :class:`~repro.hardware.costs.CostModel` (or a
lock's grant and try costs) was checked non-negative when that object
was built, so the hot paths add it directly: ``thread.pending_us +=
cost``, no call. :meth:`~CpuBoundThread.charge` keeps the check for
values from anywhere else (``run_for``, tests); both fold into the same
accumulator in the same order, so the sum is the same float either way.

A realised charge normally travels as a bare float delay up the
thread's generator chain, through the event heap and back down. When
its wake time ``now + cost`` is **strictly** earlier than the heap's
first entry (or the heap is empty) and not past the run's horizon
(``Simulator._horizon``: ``until``, or +inf), the heap would pop that
very entry next, so :meth:`CpuBoundThread.spend` moves the clock itself
and returns the empty tuple instead. The context-switch charge of a
dispatch (``ProcessorPool._dispatch``) takes the same rule, inlined the
same way. Three invariants make the two paths indistinguishable:

* an equal timestamp still goes through the heap, so the ``(time,
  seq)`` tie-break is untouched (skipping a ``seq`` number reorders
  nothing);
* an advance never passes ``until``: a later wake stays queued;
* each advance counts as one ``events_processed``; outside ``run`` the
  horizon is ``-inf``, so nothing advances there.

Park and wake
-------------
Every wait is a park. The thread queues *itself* where its waker will
find it (the pool's ready queue, a lock's or a disk's waiter deque, an
:class:`~repro.simcore.engine.Event`'s ``waiters``) and parks
(:meth:`CpuBoundThread.park`: its process yields
:data:`~repro.simcore.engine.PARKED`); the waker calls
:meth:`CpuBoundThread.wake`, which pushes the one heap entry that
resumes the process at ``(now, next seq)``. A wake that arrives before
the thread parked makes the park a zero delay, and so does an event
that fired while the thread was still spending. A
:meth:`~CpuBoundThread.sleep_blocked` sets its own timer entry, which
resumes the parked thread directly.

A voluntary yield is one hand-off in one generator: queue, release
(waking the head of the ready queue), park, re-dispatch.

Start, body, exit
-----------------
A thread's process runs three generators in turn, each from the step
that finished the one before: the start (the first processor acquire),
the body, and the exit (spend the last charge, then release). No frame
wraps the body, so a resume runs only the body's own frames.

A thread closed while parked (:meth:`CpuBoundThread.abort`) leaves the
queue it sits in; if a release already handed it the processor, the
lock wakeup or the disk slot, it hands that on, so the live threads
behind it lose nothing. A processor it still holds is released.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Generator, Optional

from repro.errors import SimulationError
from repro.simcore.engine import PARKED, Event, Process, Simulator

__all__ = ["ProcessorPool", "CpuBoundThread"]

#: Shared empty iterable returned by the allocation-free early-outs:
#: ``yield from ()`` suspends nothing and touches no allocator.
_NO_EVENTS: tuple = ()


class ProcessorPool:
    """``n_processors`` identical CPUs with a shared FIFO ready queue."""

    def __init__(self, sim: Simulator, n_processors: int,
                 context_switch_us: float) -> None:
        if n_processors < 1:
            raise SimulationError(
                f"need at least one processor, got {n_processors}")
        if context_switch_us < 0:
            raise SimulationError("context switch cost must be >= 0")
        self.sim = sim
        self.n_processors = n_processors
        # A float: a context switch realised through the heap is
        # yielded as a bare float delay.
        self.context_switch_us = float(context_switch_us)
        self._free = n_processors
        self._ready: Deque[CpuBoundThread] = deque()
        # Aggregate accounting (diagnostics / utilization reports).
        self.busy_time = 0.0

    @property
    def ready_count(self) -> int:
        """Number of threads waiting for a processor."""
        return len(self._ready)

    @property
    def free_processors(self) -> int:
        return self._free

    def utilization(self, elapsed: float) -> float:
        """Fraction of total processor-time spent computing over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.n_processors)

    # -- internal protocol used by CpuBoundThread -------------------------

    def _acquire(self, thread: "CpuBoundThread", boost: bool = False):
        """Obtain a processor for ``thread``, queueing if none is free.

        ``boost=True`` queues at the *front*: threads waking from a
        blocking wait (lock grant, I/O completion) are dispatched ahead
        of voluntarily-yielded peers, modelling the sleeper boost every
        real scheduler applies. Without it, a lock handed to a
        descheduled thread sits behind a run-queue of CPU-hungry
        threads and the resulting convoy never dissolves.

        Returns an iterable for ``yield from``: with a free processor
        it is :meth:`_dispatch`'s, otherwise a generator that parks in
        the ready queue first.
        """
        if self._free > 0:
            self._free -= 1
            return self._dispatch(thread)
        if boost:
            self._ready.appendleft(thread)
        else:
            self._ready.append(thread)
        return self._queued(thread)

    def _queued(self, thread: "CpuBoundThread"):
        """Park in the ready queue until :meth:`_release` hands
        ``thread`` a processor (maybe before it parked), then dispatch."""
        try:
            if thread._woken:
                thread._woken = False
                yield 0.0
            else:
                thread._parked = True
                yield PARKED
        except GeneratorExit:
            if thread in self._ready:
                self._ready.remove(thread)
            else:
                self._release()  # hand the processor it was given on
            raise
        yield from self._dispatch(thread)

    def _dispatch(self, thread: "CpuBoundThread"):
        """``thread`` holds a processor: report the dispatch and charge
        its context switch. Returns the empty tuple when that realised
        in place (or costs nothing), else a one-float delay."""
        thread._running = True
        sim = self.sim
        observer = sim.observer
        if observer is not None:
            observer.on_dispatch(len(self._ready), sim._now)
        cost = self.context_switch_us
        if cost > 0:
            self.busy_time += cost
            # The in-place advance of CpuBoundThread.spend, inlined.
            when = sim._now + cost
            heap = sim._heap
            if when <= sim._horizon and (not heap or when < heap[0][0]):
                sim._now = when
                sim._events_processed += 1
            else:
                return (cost,)
        return _NO_EVENTS

    def _release(self) -> None:
        """Give up the calling thread's processor, dispatching a waiter."""
        if self._ready:
            self._ready.popleft().wake()
        else:
            self._free += 1
            if self._free > self.n_processors:
                raise SimulationError("processor released more than acquired")


class CpuBoundThread:
    """A simulated transaction-processing thread.

    The thread drives a user-supplied generator (the "body"). Inside the
    body, code interacts with the thread through:

    * :meth:`charge` (or ``pending_us += cost`` for a cost validated at
      construction) — accumulate CPU cost without yielding;
    * ``yield from`` :meth:`spend` — realize accumulated cost as
      simulated time on the processor;
    * ``yield from`` :meth:`wait` — block on an event (releases the CPU);
    * ``yield from`` :meth:`park` — block until :meth:`wake` (releases
      the CPU);
    * ``yield from`` :meth:`yield_cpu` — voluntary reschedule point.

    The body *must not* yield a delay or :data:`PARKED` itself for a
    blocking wait, because the processor would then stay (incorrectly)
    occupied.
    """

    def __init__(self, pool: ProcessorPool, name: str = "thread") -> None:
        self.pool = pool
        self.sim = pool.sim
        #: Runtime-protocol alias (repro.runtime.base.ThreadContext):
        #: instrumented core code reaches the clock/observer/checker
        #: through ``thread.runtime`` on either backend. Same object.
        self.runtime = pool.sim
        self.name = name
        #: CPU work accumulated since the last :meth:`spend` (µs).
        self.pending_us = 0.0
        #: Holds a processor (set at dispatch, cleared on release).
        self._running = False
        #: Parked with nothing queued to resume it: wake() pushes that.
        self._parked = False
        #: Woken before it parked: the next park is a zero delay.
        self._woken = False
        #: ``cpu_time + pending_us`` at the last yield_cpu or unblock:
        #: the start of :meth:`maybe_yield`'s quantum.
        self.yield_mark = 0.0
        self.process: Optional[Process] = None
        # Accounting.
        self.cpu_time = 0.0
        self.blocked_time = 0.0
        self.blocks = 0
        self.voluntary_yields = 0

    # -- cost accounting ---------------------------------------------------

    def charge(self, cost_us: float) -> None:
        """Accumulate ``cost_us`` of CPU work, realized at the next yield."""
        if cost_us < 0:
            raise SimulationError(f"negative charge: {cost_us}")
        self.pending_us += cost_us

    def spend(self):
        """Realize accumulated charges as time spent holding the CPU.

        Hot path: returns an iterable for ``yield from``. With no
        pending charge, or when the charge ends before any queued event
        and the clock moved in place (module docstring), the shared
        empty tuple comes back: no generator, no event. Otherwise a
        one-float tuple, a delay the driving process turns into one
        heap entry. Timestamps and tie-break order are identical either
        way.
        """
        cost = self.pending_us
        if cost <= 0.0:
            return _NO_EVENTS
        self.pending_us = 0.0
        self.cpu_time += cost
        self.pool.busy_time += cost
        # In-place advance (module docstring). Inline, not a helper: a
        # failed test must cost attribute loads only.
        sim = self.sim
        when = sim._now + cost
        heap = sim._heap
        if when <= sim._horizon and (not heap or when < heap[0][0]):
            sim._now = when
            sim._events_processed += 1
            return _NO_EVENTS
        return (cost,)

    def run_for(self, cost_us: float):
        """Charge and immediately spend ``cost_us`` of CPU time."""
        self.charge(cost_us)
        return self.spend()

    # -- blocking ----------------------------------------------------------

    def wait(self, event: Event) -> Generator[Any, None, None]:
        """Block on ``event``: release the CPU, wait, re-acquire the CPU.

        Any accumulated charge is spent *before* releasing the processor,
        so work done just before blocking lands at the right timestamps.
        """
        return self.park(event)

    def park(self, event: Optional[Event] = None
             ) -> Generator[Any, None, None]:
        """Block until :meth:`wake`, or until ``event`` fires.

        Without an event the caller has queued this thread where its
        waker will find it. With one, the thread joins
        ``event.waiters`` once its charge is spent and its processor
        released. A wake (or the event) that came first makes the park
        a zero delay.
        """
        yield from self.spend()
        self.blocks += 1
        sim = self.sim
        blocked_at = sim._now
        pool = self.pool
        pool._release()
        self._running = False
        # _park_mark, inlined.
        if self._woken or (event is not None and event._triggered):
            self._woken = False
            yield 0.0
        else:
            if event is not None:
                event.waiters.append(self)
            self._parked = True
            yield PARKED
        # pool._acquire(self, boost=True), its free path inlined.
        if pool._free > 0:
            pool._free -= 1
            yield from pool._dispatch(self)
        else:
            yield from pool._acquire(self, boost=True)
        self.yield_mark = self.cpu_time
        now = sim._now
        self.blocked_time += now - blocked_at
        observer = sim.observer
        if observer is not None:
            observer.on_thread_block(self.name, blocked_at, now)

    def wake(self) -> None:
        """Resume this parked thread at ``(now, next seq)``; before it
        parked, make its next park a zero delay instead."""
        if self._parked:
            self._parked = False
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim._now, seq, self.process))
        else:
            self._woken = True

    def sleep_blocked(self, duration_us: float) -> Generator[Any, None, None]:
        """Block off-CPU for a fixed duration (e.g. a disk I/O wait).

        The timer is set before the pending charge is spent, so it may
        go off while the thread is still spending."""
        self.sim._schedule(duration_us, self._timer_fired)
        return self.park()

    def _timer_fired(self) -> None:
        """The timer entry of :meth:`sleep_blocked`: resume the parked
        thread from this very entry, or mark it woken if it is still
        spending."""
        if self._parked:
            self._parked = False
            self.process._resume()
        else:
            self._woken = True

    def maybe_yield(self, quantum_us: float):
        """Yield the processor if this thread has run a full quantum.

        Models timer-based preemption at transaction-processing
        granularity: callers invoke it at convenient points (e.g. per
        page access) and the thread reschedules only after accumulating
        ``quantum_us`` of CPU time since it last gave up the processor.

        Returns an iterable for ``yield from``; below the quantum it is
        the shared empty tuple (allocation-free early-out). The tiers
        make this same test inline, per access.
        """
        if self.cpu_time + self.pending_us - self.yield_mark >= quantum_us:
            return self.yield_cpu()
        return _NO_EVENTS

    def yield_cpu(self):
        """Voluntarily reschedule if anyone is waiting for a processor.

        Returns an iterable for ``yield from``; with no ready peers the
        shared empty tuple comes back and no generator is created.
        """
        self.yield_mark = self.cpu_time + self.pending_us
        if not self.pool._ready:
            return _NO_EVENTS
        return self._reschedule()

    def _reschedule(self) -> Generator[Any, None, None]:
        """The slow path of :meth:`yield_cpu`, in one generator: queue,
        wait, re-dispatch.

        The thread queues before it releases: if the queue emptied
        meanwhile, the release hands the processor straight back (a
        wake before the park)."""
        yield from self.spend()
        self.voluntary_yields += 1
        pool = self.pool
        pool._ready.append(self)
        pool._release()
        self._running = False
        # pool._queued(self), inlined.
        try:
            if self._woken:
                self._woken = False
                yield 0.0
            else:
                self._parked = True
                yield PARKED
        except GeneratorExit:
            if self in pool._ready:
                pool._ready.remove(self)
            else:
                pool._release()  # hand the processor it was given on
            raise
        yield from pool._dispatch(self)

    # -- lifecycle ----------------------------------------------------------

    def start(self, body: Generator[Any, None, None]) -> Process:
        """Begin executing ``body`` on this thread, between its start
        and its exit (module docstring)."""
        if self.process is not None:
            raise SimulationError(f"thread {self.name!r} already started")
        self.process = Process(self.sim, self._start(), name=self.name,
                               then=(body, self._exit()))
        return self.process

    def abort(self) -> None:
        """Close the body where it is parked, after a failed run, and
        release a processor the thread still holds.

        ``GeneratorExit`` unwinds the body's close-safe sections (a
        hit's pin, a lock-queue entry, a ready-queue or disk slot); the
        unrealised charge is dropped. A thread whose own body raised
        only releases its processor here.
        """
        process = self.process
        if process is None:
            return
        self.pending_us = 0.0
        if process._alive:
            process._alive = False
            process._body.close()
        if self._running:
            self.pool._release()
            self._running = False

    def _start(self) -> Generator[Any, None, None]:
        yield from self.pool._acquire(self)

    def _exit(self) -> Generator[Any, None, None]:
        yield from self.spend()
        if self._running:
            self.pool._release()
            self._running = False
