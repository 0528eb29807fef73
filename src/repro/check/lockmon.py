"""Shadow-state monitor for the :class:`~repro.sync.locks.SimLock`
protocol.

The simulated lock already raises on gross misuse (release by a
non-owner, re-acquire by the owner), but those guards live *inside* the
component being verified. :class:`LockMonitor` keeps an independent
shadow copy of every lock's state — owner, FIFO wait queue, the set of
woken-but-not-yet-granted threads — fed only by the hook stream
(granted / blocked / requeued / released), and raises
:class:`~repro.errors.CheckError` the moment the stream stops being a
legal Mesa-with-barging history:

* **grant while held** — a second owner granted before release;
* **double release / release-by-non-owner** — the shadow owner
  disagrees with the releasing thread;
* **lost wakeup** — a release with waiters queued that wakes nobody,
  or (at :meth:`finalize`) threads left blocked after the simulation
  drained every event;
* **FIFO violation** — the woken thread is not the head of the shadow
  queue;
* **rotation violation** — a waiter that lost a barging race re-queued
  somewhere other than the tail (PostgreSQL's LWLockAcquire re-queues
  at the tail; a front re-queue would starve the rest of the queue).

The monitor never mutates the lock and is attached only through
:class:`repro.check.CorrectnessChecker`, so production runs never pay
for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set

from repro.errors import CheckError

__all__ = ["LockMonitor", "LockShadow"]


@dataclass
class LockShadow:
    """The monitor's independent model of one lock."""

    owner: Optional[str] = None
    waiters: Deque[str] = field(default_factory=deque)
    #: Threads woken by a release that have not yet been granted the
    #: lock or re-queued (the barging window).
    woken: Set[str] = field(default_factory=set)
    grants: int = 0
    releases: int = 0
    requeues: int = 0


class LockMonitor:
    """Replays the lock hook stream against shadow state."""

    def __init__(self) -> None:
        self._locks: Dict[str, LockShadow] = {}

    def shadow(self, lock_name: str) -> LockShadow:
        shadow = self._locks.get(lock_name)
        if shadow is None:
            shadow = self._locks[lock_name] = LockShadow()
        return shadow

    # -- hook stream ---------------------------------------------------------

    def on_granted(self, lock_name: str, thread_name: str) -> None:
        shadow = self.shadow(lock_name)
        if shadow.owner is not None:
            raise CheckError(
                f"lock {lock_name!r}: granted to {thread_name!r} while "
                f"still owned by {shadow.owner!r}")
        if thread_name in shadow.waiters:
            raise CheckError(
                f"lock {lock_name!r}: {thread_name!r} granted while "
                f"still queued (it was never woken)")
        shadow.woken.discard(thread_name)
        shadow.owner = thread_name
        shadow.grants += 1

    def on_blocked(self, lock_name: str, thread_name: str,
                   position: int) -> None:
        shadow = self.shadow(lock_name)
        if shadow.owner == thread_name:
            raise CheckError(
                f"lock {lock_name!r}: owner {thread_name!r} blocked on "
                f"its own lock")
        if position != len(shadow.waiters):
            raise CheckError(
                f"lock {lock_name!r}: {thread_name!r} blocked at "
                f"position {position}, expected tail position "
                f"{len(shadow.waiters)}")
        shadow.waiters.append(thread_name)

    def on_requeued(self, lock_name: str, thread_name: str,
                    position: int, queue_length: int) -> None:
        shadow = self.shadow(lock_name)
        if thread_name not in shadow.woken:
            raise CheckError(
                f"lock {lock_name!r}: {thread_name!r} re-queued without "
                f"having been woken (spurious retry)")
        shadow.woken.discard(thread_name)
        # The fairness property under barging: a woken waiter that lost
        # the race goes to the TAIL, rotating wake-up attempts.
        if position != queue_length - 1 or position != len(shadow.waiters):
            raise CheckError(
                f"lock {lock_name!r}: {thread_name!r} re-queued at "
                f"position {position} of {queue_length} — barging "
                f"losers must rotate to the tail "
                f"(expected {len(shadow.waiters)})")
        shadow.waiters.append(thread_name)
        shadow.requeues += 1

    def on_released(self, lock_name: str, thread_name: str,
                    woken: Optional[str]) -> None:
        shadow = self.shadow(lock_name)
        if shadow.owner is None:
            raise CheckError(
                f"lock {lock_name!r}: double release by {thread_name!r} "
                f"(lock already free)")
        if shadow.owner != thread_name:
            raise CheckError(
                f"lock {lock_name!r}: released by {thread_name!r} but "
                f"owned by {shadow.owner!r}")
        shadow.owner = None
        shadow.releases += 1
        if shadow.waiters:
            expected = shadow.waiters[0]
            if woken is None:
                raise CheckError(
                    f"lock {lock_name!r}: released with "
                    f"{len(shadow.waiters)} waiters queued but no "
                    f"wakeup issued (lost wakeup)")
            if woken != expected:
                raise CheckError(
                    f"lock {lock_name!r}: woke {woken!r} but FIFO head "
                    f"is {expected!r}")
            shadow.waiters.popleft()
            shadow.woken.add(woken)
        elif woken is not None:
            raise CheckError(
                f"lock {lock_name!r}: woke {woken!r} but the shadow "
                f"queue is empty")

    def on_abandoned(self, lock_name: str, thread_name: str,
                     woken: Optional[str]) -> None:
        """A waiter closed while parked left the queue (or the woken
        set), handing any wakeup it held on to ``woken``."""
        shadow = self.shadow(lock_name)
        if thread_name in shadow.waiters:
            shadow.waiters.remove(thread_name)
        elif thread_name in shadow.woken:
            shadow.woken.discard(thread_name)
        else:
            raise CheckError(
                f"lock {lock_name!r}: {thread_name!r} abandoned a wait "
                f"it was not in")
        if woken is None:
            return
        if shadow.owner is not None or not shadow.waiters \
                or shadow.waiters[0] != woken:
            raise CheckError(
                f"lock {lock_name!r}: abandoned wakeup handed to "
                f"{woken!r}, not to the FIFO head of a free lock")
        shadow.waiters.popleft()
        shadow.woken.add(woken)

    def assert_held_by(self, lock_name: str, thread_name: str) -> None:
        """Commit-protocol check: the committer must hold the lock."""
        shadow = self.shadow(lock_name)
        if shadow.owner != thread_name:
            raise CheckError(
                f"lock {lock_name!r}: commit by {thread_name!r} without "
                f"holding the lock (owner: {shadow.owner!r})")

    # -- end of run ----------------------------------------------------------

    def finalize(self) -> None:
        """Verify quiescence once the simulator drained every event.

        A thread still queued (or woken but never granted) at that
        point can never run again: its wakeup was lost.
        """
        for lock_name, shadow in self._locks.items():
            if shadow.owner is not None:
                raise CheckError(
                    f"lock {lock_name!r}: still held by "
                    f"{shadow.owner!r} at end of run (missing release)")
            if shadow.waiters:
                raise CheckError(
                    f"lock {lock_name!r}: {len(shadow.waiters)} threads "
                    f"left blocked at end of run (lost wakeup): "
                    f"{list(shadow.waiters)!r}")
            if shadow.woken:
                raise CheckError(
                    f"lock {lock_name!r}: woken threads never "
                    f"re-acquired or re-queued: {sorted(shadow.woken)!r}")

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-lock grant/release/requeue counts (diagnostics)."""
        return {name: {"grants": shadow.grants,
                       "releases": shadow.releases,
                       "requeues": shadow.requeues}
                for name, shadow in sorted(self._locks.items())}
