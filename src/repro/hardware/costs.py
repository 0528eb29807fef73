"""The simulation's cost model: every microsecond constant in one place.

The absolute values are order-of-magnitude figures consistent with the
paper's own measurements (Figure 2 shows per-access lock acquisition +
holding times between roughly 0.3 µs and 100 µs on the 16-processor
Altix) and with common folklore numbers for mid-2000s hardware (a few µs
per context switch, milliseconds per disk read). The reproduction's
claims are about *shapes* — who wins, where curves saturate — which are
robust to moderate changes in these constants; ``benchmarks/
bench_ablation.py`` sweeps the sensitive ones to demonstrate that.

Every constant is checked once, when the model is built (directly or
through :meth:`CostModel.scaled`): the hot paths add them to a thread's
``pending_us`` with no check of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """All CPU/IO cost constants (microseconds unless noted)."""

    # -- per-page-access costs outside the buffer manager ------------------
    #: The transaction's own computation per page access (executor work,
    #: predicate evaluation, tuple handling...). This is what a hardware
    #: prefetcher accelerates: it is mostly sequential memory traffic.
    #: Calibration note: the paper's shapes need this to be roughly 6-8x
    #: the critical-section length — pg2Q then saturates between 4 and 8
    #: processors and lands ~2x below pgclock at 16, as in Fig. 6.
    user_work_us: float = 50.0

    # -- buffer-manager common path ----------------------------------------
    #: Hash-table lookup under a (rarely contended) bucket lock.
    hash_lookup_us: float = 0.20
    #: Pin/unpin bookkeeping around an access.
    pin_unpin_us: float = 0.10

    # -- replacement-lock costs ---------------------------------------------
    #: Changing lock state when granted without contention.
    lock_grant_us: float = 0.15
    #: One non-blocking ``TryLock`` attempt.
    try_lock_us: float = 0.10
    #: One context switch (deschedule or dispatch).
    context_switch_us: float = 6.0
    #: Timer-preemption quantum: a thread reschedules after this much
    #: CPU time when peers are waiting for a processor.
    scheduler_quantum_us: float = 250.0

    # -- critical-section costs ----------------------------------------------
    #: The replacement algorithm's bookkeeping per page (list unlink +
    #: relink, counters) once its metadata is cache-resident.
    replacement_op_us: float = 0.35
    #: Fixed warm-up: loading the lock word and list heads into a cold
    #: processor cache on critical-section entry.
    warmup_fixed_us: float = 5.0
    #: Additional warm-up per committed page whose list node is cold.
    warmup_per_page_us: float = 0.4
    #: Residual per-page stall when the node was prefetched (prefetch
    #: hides most, not all, of the miss latency).
    warm_residual_us: float = 0.05
    #: Coherence degradation: waiters spinning/retrying on the lock word
    #: slow the holder's accesses to the shared lines. The warm-up part
    #: of the critical section is scaled by (1 + this * active_waiters).
    coherence_per_waiter: float = 0.06
    #: Cap on the waiters counted above: descheduled waiters do not
    #: touch the line, so only about a processor's worth can hammer it.
    coherence_waiter_cap: int = 8

    # -- BP-Wrapper costs ------------------------------------------------------
    #: Recording one access into the thread-private FIFO queue.
    queue_record_us: float = 0.08
    #: Issuing one software prefetch (outside the critical section).
    prefetch_issue_us: float = 0.10
    #: Re-validating one queue entry's BufferTag at commit time.
    tag_check_us: float = 0.05

    # -- lock-free clock path ---------------------------------------------------
    #: Setting the reference bit on a hit (no lock needed).
    ref_bit_us: float = 0.05

    # -- storage -------------------------------------------------------------------
    #: Service time of one page read at the disk array.
    disk_read_us: float = 5500.0
    #: Number of requests the array can service concurrently.
    disk_concurrency: int = 9

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ConfigError(
                    f"CostModel.{field.name} must be >= 0, got {value}")
        if self.disk_concurrency < 1:
            raise ConfigError(
                f"CostModel.disk_concurrency must be >= 1, "
                f"got {self.disk_concurrency}")

    def scaled(self, **overrides: float) -> "CostModel":
        """A copy with selected constants replaced (for ablations)."""
        return replace(self, **overrides)
