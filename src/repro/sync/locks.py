"""Simulated exclusive lock with blocking acquire and ``TryLock``.

Semantics mirror a PostgreSQL LWLock as the paper describes it:

* ``Lock()`` (:meth:`SimLock.acquire`): if the lock is free it is
  granted immediately for a small state-change cost; otherwise the
  caller *blocks* — it is descheduled (context switch) and queued FIFO.
  A blocked request is counted as one **contention** event, matching
  §IV-D ("a lock request cannot be immediately satisfied and a process
  context switch occurs").
* ``TryLock()`` (:meth:`SimLock.try_acquire`): a cheap non-blocking
  attempt that fails without descheduling when the lock is busy — the
  primitive BP-Wrapper's batch-threshold path relies on (Fig. 4,
  line 8).

Release uses **Mesa semantics with barging**, like PostgreSQL's LWLock:
the lock becomes *free* immediately and the head waiter is woken to
*retry*; a running thread may grab the lock before the woken thread is
re-dispatched, in which case the waiter re-queues **at the tail** —
exactly what PostgreSQL's LWLockAcquire does, rotating wake-up attempts
fairly across all waiters instead of letting one unlucky thread pin the
head slot. This matters enormously for fidelity: direct owner-handoff
would keep the lock "held" by descheduled threads and manufacture
permanent convoys that real 2009-era DBMS locks do not exhibit at low
contention.

Waiters park (:meth:`~repro.simcore.cpu.CpuBoundThread.park`): the
queue holds the threads themselves and a release wakes the head one
directly, with no event in between. A waiter closed while parked (an
aborted access) leaves the queue; if a release already woke it, it
hands that wakeup on to the next waiter, so the threads behind it lose
nothing.

When a :class:`~repro.check.CorrectnessChecker` is attached to the
simulator (``sim.checker``), every protocol transition — grant, block,
tail re-queue after a lost barging race, release and the identity of
the woken waiter, abandoned wait — is reported to it, so the
lock-protocol monitor can shadow-verify FIFO rotation, detect double
releases and prove no wakeup was lost. With no checker attached the
cost is one attribute load per transition, mirroring the
``sim.observer`` pattern.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Iterable, Optional

from repro.errors import LockError
from repro.runtime.base import Wait, Waits, check_lock_costs
from repro.sync.stats import LockStats

if TYPE_CHECKING:
    from repro.simcore.cpu import CpuBoundThread
    from repro.simcore.engine import Simulator

__all__ = ["SimLock"]


class SimLock:
    """An exclusive, non-reentrant, FIFO-fair simulated lock.

    Satisfies :class:`repro.runtime.base.MutexLock` for threads of
    the simulator backend (:class:`~repro.simcore.cpu.CpuBoundThread`:
    waiters park and are woken); the native counterpart is
    :class:`repro.runtime.native.NativeLock`. Of ``sim`` only
    ``_now``, ``observer`` and ``checker`` are used.
    """

    def __init__(self, sim: "Simulator", name: str = "lock",
                 grant_cost_us: float = 0.0,
                 try_cost_us: float = 0.0) -> None:
        check_lock_costs(name, grant_cost_us, try_cost_us)
        self.sim = sim
        self.name = name
        #: CPU cost of changing lock state when granted uncontended.
        self.grant_cost_us = grant_cost_us
        #: CPU cost of one ``TryLock`` attempt.
        self.try_cost_us = try_cost_us
        self.stats = LockStats()
        self._owner: Optional[CpuBoundThread] = None
        self._waiters: Deque[CpuBoundThread] = deque()
        self._acquired_at = 0.0

    @property
    def held(self) -> bool:
        return self._owner is not None

    @property
    def owner(self) -> Optional[CpuBoundThread]:
        return self._owner

    @property
    def queue_length(self) -> int:
        """Number of threads currently blocked on the lock."""
        return len(self._waiters)

    def try_acquire(self, thread: CpuBoundThread) -> bool:
        """Non-blocking acquire attempt; adds :attr:`try_cost_us`.

        A successful ``TryLock`` is a satisfied lock request and counts
        toward :attr:`LockStats.requests`, exactly as a blocking
        ``Lock()`` does — otherwise batched systems (whose requests are
        almost all try successes) would report inflated
        contention-per-request ratios. A failed attempt is *not* a
        request: nothing blocked, no context switch occurred.
        """
        self.stats.try_attempts += 1
        thread.pending_us += self.try_cost_us
        if self._owner is not None:
            self.stats.try_failures += 1
            observer = self.sim.observer
            if observer is not None:
                observer.on_try_lock_failure(self.name, thread.name,
                                             self.sim._now)
            return False
        self.stats.requests += 1
        self._grant(thread)
        return True

    def acquire(self, thread: CpuBoundThread) -> Iterable[Wait]:
        """Blocking acquire (``yield from lock.acquire(thread)``).

        Returns the empty tuple when the caller's pending charge was
        realised in place and the lock is free: the grant happens
        before this returns, as with
        :class:`~repro.runtime.native.NativeLock`. Otherwise returns a
        generator that realises the charge through the engine and then
        grants or blocks.
        """
        if self._owner is thread:
            raise LockError(
                f"thread {thread.name!r} re-acquired non-reentrant "
                f"lock {self.name!r}")
        # Realize any accumulated CPU work first: the lock state must be
        # observed at the caller's true logical time, and pending charges
        # must not be billed inside the holding window.
        spent = thread.spend()
        if not spent and self._owner is None:
            self.stats.requests += 1
            thread.pending_us += self.grant_cost_us
            self._grant(thread)
            return ()
        return self._acquire_slow(thread, spent)

    def _acquire_slow(self, thread: CpuBoundThread,
                      spent: Iterable[Wait]) -> Waits:
        """:meth:`acquire` after a yielding spend or on a held lock."""
        yield from spent
        self.stats.requests += 1
        if self._owner is None:
            thread.pending_us += self.grant_cost_us
            self._grant(thread)
            return
        # Contended path: block, counted once per request however many
        # retries the barging window forces.
        self.stats.contentions += 1
        sim = self.sim
        blocked_at = sim._now
        observer = sim.observer
        checker = sim.checker
        if observer is not None:
            observer.on_lock_contention(self.name, thread.name, blocked_at,
                                        len(self._waiters) + 1)
        first_block = True
        while True:
            # Queue at the tail — also after losing a barging race, as
            # PostgreSQL's LWLockAcquire re-queues at the tail, which
            # rotates wake-up attempts fairly across all waiters.
            self._waiters.append(thread)
            if checker is not None:
                position = self._waiters.index(thread)
                if first_block:
                    checker.on_lock_blocked(self.name, thread.name,
                                            position)
                else:
                    checker.on_lock_requeued(self.name, thread.name,
                                             position,
                                             len(self._waiters))
            first_block = False
            try:
                yield from thread.park()
            except GeneratorExit:
                self._abandon(thread)
                raise
            if self._owner is None:
                thread.pending_us += self.grant_cost_us
                self._grant(thread)
                break
        now = sim._now
        self.stats.total_wait_us += now - blocked_at
        if observer is not None:
            observer.on_lock_wait(self.name, thread.name, blocked_at, now)

    def release(self, thread: CpuBoundThread) -> None:
        """Release the lock to free state, waking the oldest waiter."""
        if self._owner is not thread:
            owner = self._owner.name if self._owner else None
            raise LockError(
                f"thread {thread.name!r} released lock {self.name!r} "
                f"owned by {owner!r}")
        now = self.sim._now
        hold = now - self._acquired_at
        stats = self.stats
        stats.total_hold_us += hold
        if hold > stats.max_hold_us:
            stats.max_hold_us = hold
        if hold > stats.window_max_hold_us:
            stats.window_max_hold_us = hold
        self._owner = None
        observer = self.sim.observer
        if observer is not None:
            observer.on_lock_hold(self.name, thread.name, self._acquired_at,
                                  now, len(self._waiters))
        woken = None
        if self._waiters:
            next_thread = self._waiters.popleft()
            woken = next_thread.name
            next_thread.wake()
        checker = self.sim.checker
        if checker is not None:
            checker.on_lock_released(self.name, thread.name, woken)

    def _abandon(self, thread: CpuBoundThread) -> None:
        """A waiter was closed while parked (an aborted access).

        Still queued, it leaves the queue. Already woken by a release,
        it hands that wakeup on to the next waiter if the lock is free,
        so the live threads behind it lose no wakeup.
        """
        woken = None
        if thread in self._waiters:
            self._waiters.remove(thread)
        elif self._owner is None and self._waiters:
            next_thread = self._waiters.popleft()
            woken = next_thread.name
            next_thread.wake()
        checker = self.sim.checker
        if checker is not None:
            checker.on_lock_abandoned(self.name, thread.name, woken)

    def _grant(self, thread: CpuBoundThread) -> None:
        self._owner = thread
        self._acquired_at = self.sim._now
        self.stats.acquisitions += 1
        checker = self.sim.checker
        if checker is not None:
            checker.on_lock_granted(self.name, thread.name)
