"""Lock statistics, matching the paper's instrumentation.

The paper defines *average lock contention* as "the number of lock
contentions per million page accesses", where a contention is "a lock
request [that] cannot be immediately satisfied and a process context
switch occurs" (§IV-D). :class:`LockStats` counts exactly that, plus the
wait/hold times needed for Figure 2 (average lock acquisition and
holding time per page access).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util import CounterArithmetic

__all__ = ["LockStats"]


@dataclass
class LockStats(CounterArithmetic):
    """Counters accumulated by a :class:`~repro.sync.locks.SimLock`;
    ``copy`` / ``delta_since`` / ``merged_with`` come from the field
    list (:class:`~repro.util.CounterArithmetic`)."""

    #: Blocking acquire requests (``Lock()`` calls).
    requests: int = 0
    #: Requests that found the lock busy and blocked — the paper's
    #: "lock contention" events.
    contentions: int = 0
    #: Successful acquisitions (blocking or try).
    acquisitions: int = 0
    #: Non-blocking ``TryLock()`` attempts.
    try_attempts: int = 0
    #: ``TryLock()`` attempts that failed because the lock was busy.
    try_failures: int = 0
    #: Total simulated time threads spent blocked waiting for the lock.
    total_wait_us: float = 0.0
    #: Total simulated time the lock was held.
    total_hold_us: float = 0.0
    #: Longest single holding period (diagnostics).
    max_hold_us: float = field(default=0.0, repr=False)
    #: Longest holding period since :meth:`begin_window` was last
    #: called (equal to :attr:`max_hold_us` if it never was). This is
    #: what makes warm-up-excluded deltas honest: the lifetime max
    #: keeps remembering ramp-up transients forever.
    window_max_hold_us: float = field(default=0.0, repr=False)

    @property
    def contention_rate(self) -> float:
        """Fraction of lock requests that blocked (contentions/requests).

        ``requests`` counts every *satisfied-or-blocking* acquisition
        attempt: blocking ``Lock()`` calls plus successful
        ``TryLock()`` grants (failed tries never block and are excluded
        on both sides of the ratio). Counting try successes keeps the
        rate comparable between direct systems (all blocking requests)
        and batched systems (mostly try-success requests); before that
        fix batched rates were inflated by an empty denominator.
        """
        if self.requests == 0:
            return 0.0
        return self.contentions / self.requests

    def contentions_per_million(self, accesses: int) -> float:
        """The paper's headline metric, over ``accesses`` page accesses."""
        if accesses <= 0:
            return 0.0
        return self.contentions * 1_000_000.0 / accesses

    def lock_time_per_access_us(self, accesses: int) -> float:
        """Average lock acquisition + holding time per page access (Fig. 2)."""
        if accesses <= 0:
            return 0.0
        return (self.total_wait_us + self.total_hold_us) / accesses

    def mean_hold_us(self) -> float:
        """Average length of one lock-holding period."""
        if self.acquisitions == 0:
            return 0.0
        return self.total_hold_us / self.acquisitions

    def mean_wait_us(self) -> float:
        """Average blocked time per contended request."""
        if self.contentions == 0:
            return 0.0
        return self.total_wait_us / self.contentions

    def begin_window(self) -> None:
        """Start a fresh measurement window for max-hold tracking.

        Called on the *live* stats at the moment a snapshot is taken
        (e.g. when the harness's warm-up period ends), so a later
        :meth:`delta_since` can report the longest hold *within* the
        window rather than leaking the lifetime max — which would keep
        reporting a warm-up transient from before the snapshot.
        """
        self.window_max_hold_us = 0.0

    def delta_since(self, earlier: "LockStats") -> "LockStats":
        """Counters accumulated since the ``earlier`` snapshot.

        Used by the harness to exclude the measurement warm-up window
        (ramp-up transients would otherwise dominate short runs). The
        delta's ``max_hold_us`` is the window max — correct when
        :meth:`begin_window` was called on the live stats at snapshot
        time; otherwise it degrades to the lifetime max (the historical
        behaviour).
        """
        delta = super().delta_since(earlier)
        delta.max_hold_us = delta.window_max_hold_us = self.window_max_hold_us
        return delta

    def merged_with(self, other: "LockStats") -> "LockStats":
        """A new :class:`LockStats` summing self and ``other`` (the two
        hold maxima, which do not add, take the larger)."""
        merged = super().merged_with(other)
        merged.max_hold_us = max(self.max_hold_us, other.max_hold_us)
        merged.window_max_hold_us = max(self.window_max_hold_us,
                                        other.window_max_hold_us)
        return merged
