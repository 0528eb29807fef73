"""The :class:`CorrectnessChecker` facade.

This is the checking-side twin of :class:`repro.obs.Observer`: a single
object attached at ``sim.checker`` that every instrumented component
(:class:`~repro.sync.locks.SimLock`,
:class:`~repro.core.bpwrapper.ReplacementHandler`,
:class:`~repro.bufmgr.manager.BufferManager`) notifies through narrow
``on_*`` hooks. When ``sim.checker is None`` — the default — the hooks
are never called and each call site pays one attribute load, so
production sweeps are unaffected.

The facade fans the hook stream out to:

* a :class:`~repro.check.lockmon.LockMonitor` validating the lock
  protocol (ownership, FIFO order, tail rotation, lost wakeups) and
  the commit-under-lock rule;
* the attached policies' :meth:`~repro.policies.base
  .ReplacementPolicy.check_invariants` hooks, run after every batch
  commit;
* an arrival recorder capturing the global access order, which the
  differential oracle (:mod:`repro.check.oracle`) replays through a
  second system.

Violations raise :class:`~repro.errors.CheckError` (lock protocol) or
:class:`~repro.errors.PolicyError` (structural invariants) at the
moment of the offending event, so the failing stack trace points into
the buggy transition rather than at a corrupted aggregate afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.check.lockmon import LockMonitor
from repro.errors import CheckError

__all__ = ["Arrival", "CorrectnessChecker"]


@dataclass(frozen=True)
class Arrival:
    """One recorded page request, in global arrival order."""

    thread_id: int
    page: Hashable
    is_write: bool


class CorrectnessChecker:
    """Online verifier + arrival recorder for one simulation run.

    Parameters
    ----------
    check_locks:
        Feed lock hooks into a :class:`LockMonitor` (default on).
    check_policies:
        Run policy structural invariants after each commit (default on).
    record_arrivals:
        Record the global access order for the differential oracle
        (default on; turn off for long fuzz runs to save memory).
    """

    def __init__(self, check_locks: bool = True,
                 check_policies: bool = True,
                 record_arrivals: bool = True) -> None:
        self.lock_monitor: Optional[LockMonitor] = (
            LockMonitor() if check_locks else None)
        self.check_policies = check_policies
        self.arrivals: Optional[List[Arrival]] = (
            [] if record_arrivals else None)
        #: Number of policy invariant sweeps performed.
        self.invariant_checks = 0
        #: Number of commit-under-lock assertions performed.
        self.commit_checks = 0
        self.finalized = False

    # -- lock protocol hooks (called from SimLock) ---------------------------

    def on_lock_granted(self, lock_name: str, thread_name: str) -> None:
        if self.lock_monitor is not None:
            self.lock_monitor.on_granted(lock_name, thread_name)

    def on_lock_blocked(self, lock_name: str, thread_name: str,
                        position: int) -> None:
        if self.lock_monitor is not None:
            self.lock_monitor.on_blocked(lock_name, thread_name, position)

    def on_lock_requeued(self, lock_name: str, thread_name: str,
                         position: int, queue_length: int) -> None:
        if self.lock_monitor is not None:
            self.lock_monitor.on_requeued(lock_name, thread_name,
                                          position, queue_length)

    def on_lock_released(self, lock_name: str, thread_name: str,
                         woken: Optional[str]) -> None:
        if self.lock_monitor is not None:
            self.lock_monitor.on_released(lock_name, thread_name, woken)

    def on_lock_abandoned(self, lock_name: str, thread_name: str,
                          woken: Optional[str]) -> None:
        if self.lock_monitor is not None:
            self.lock_monitor.on_abandoned(lock_name, thread_name, woken)

    # -- commit hooks (called from ReplacementHandler) -----------------------

    def on_commit(self, lock_name: str, thread_name: str,
                  holds_lock: bool) -> None:
        """A batch commit is starting; the committer must own the lock."""
        self.commit_checks += 1
        if not holds_lock:
            raise CheckError(
                f"lock {lock_name!r}: {thread_name!r} committing its "
                f"queue without holding the lock")
        if self.lock_monitor is not None:
            self.lock_monitor.assert_held_by(lock_name, thread_name)

    def on_policy_commit(self, policy) -> None:
        """A commit finished; sweep the policy's structural invariants."""
        if self.check_policies:
            self.invariant_checks += 1
            policy.check_invariants()

    # -- arrival recording (called from BufferManager) -----------------------

    def on_access(self, thread_id: int, page: Hashable,
                  is_write: bool) -> None:
        if self.arrivals is not None:
            self.arrivals.append(Arrival(thread_id, page, is_write))

    # -- end of run ----------------------------------------------------------

    def finalize(self) -> None:
        """End-of-run sweep: call once the event queue has drained.

        Detects lost wakeups and leaked lock ownership that no single
        transition could flag. Only meaningful if the run completed
        (not cut off by ``max_sim_time_us`` with work in flight).
        """
        self.finalized = True
        if self.lock_monitor is not None:
            self.lock_monitor.finalize()
