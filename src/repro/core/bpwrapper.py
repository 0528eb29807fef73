"""BP-Wrapper's hit- and miss-path handlers.

A *replacement handler* owns every interaction with the replacement
lock: it decides when the lock is taken, what is prefetched before it,
and how queued history is committed under it. The buffer manager calls
into the handler and never touches the lock itself, mirroring the
paper's framing of BP-Wrapper as a wrapper *around* the unchanged
algorithm.

Three handlers cover the paper's five systems; which system gets
which is Table I, :mod:`repro.harness.systems`.

The batched hit path is a line-for-line transcription of Figure 4:
record the access; once ``batch_threshold`` entries accumulate, attempt
``TryLock()``; on failure keep recording until the queue is *full*, at
which point a blocking ``Lock()`` is unavoidable; under the lock, replay
every recorded access into the algorithm in FIFO order, re-validating
each entry's BufferTag first.

A handler also owns its insides, and callers ask instead of probing:
``locks``, ``lock_stats()``, ``queues(slots)``, ``new_slot()`` and the
``build`` factory, which creates whatever locks and caches it needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, List, Optional, Sequence

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.control.state import ControlState
from repro.core.fifoqueue import OVERFLOW, AccessQueue, QueueEntry
from repro.errors import ConfigError, SimulationError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.base import LockDiscipline, ReplacementPolicy
from repro.runtime.base import (MutexLock, Runtime, ThreadContext, Wait,
                                Waits)
from repro.sync.stats import LockStats

__all__ = ["ThreadSlot", "ReplacementHandler", "DirectHandler",
           "PlainDirectHandler", "BatchedHandler", "LockFreeHitHandler"]


class ThreadSlot:
    """Per-thread state a handler needs: the thread and its queue."""

    __slots__ = ("thread", "thread_id", "queue")

    def __init__(self, thread: ThreadContext, thread_id: int,
                 queue_size: int) -> None:
        self.thread = thread
        self.thread_id = thread_id
        self.queue = AccessQueue(queue_size)

    @property
    def stale_entries(self) -> int:
        """Queue entries dropped at commit because their page had been
        invalidated or evicted since enqueue (§IV-B's tag check).

        Delegates to :attr:`AccessQueue.total_stale` so the slot and
        its queue can never disagree — the commit path reports stale
        drops once, to the queue, and both views read the same counter.
        """
        return self.queue.total_stale


class ReplacementHandler(ABC):
    """Owns the replacement lock on behalf of one policy instance."""

    #: Names of the locks :meth:`build` creates beside the replacement
    #: lock; the constructor takes them after ``control``.
    extra_locks: Sequence[str] = ()

    #: Whether the pool's runtime turns ``thread.pending_us`` into time
    #: (:attr:`~repro.runtime.base.Runtime.realizes_costs`); :meth:`build`
    #: copies it from the runtime. A hit that takes no lock and every
    #: locked section read it to skip a ``spend`` that nothing would see.
    realizes_costs = True

    def __init__(self, policy: ReplacementPolicy, lock: MutexLock,
                 metadata_cache: MetadataCacheModel,
                 costs: CostModel, control: ControlState) -> None:
        self.policy = policy
        self.lock = lock
        #: Every live lock this handler takes, replacement lock first.
        self.locks: List[MutexLock] = [lock]
        self.cache = metadata_cache
        self.costs = costs
        # The pool's tuning knobs. Every runtime decision (threshold
        # check, prefetch gate) reads them here, so an attached
        # controller can retune a live pool.
        self.control = control

    @classmethod
    def build(cls, runtime: Runtime, name: str,
              make_policy: Callable[[int], ReplacementPolicy],
              capacity: int, costs: CostModel, control: ControlState
              ) -> "ReplacementHandler":
        """System ``name``'s handler on ``runtime``, with the policy
        (``make_policy(capacity)``), locks and cache model it needs."""
        policy = make_policy(capacity)
        locks = [cls.new_lock(runtime, lock_name, costs) for lock_name
                 in (f"replacement-{name}", *cls.extra_locks)]
        handler = cls.suited_to(policy, runtime.realizes_costs)(
            policy, locks[0], MetadataCacheModel(costs), costs, control,
            *locks[1:])
        handler.realizes_costs = runtime.realizes_costs
        return handler

    @classmethod
    def suited_to(cls, policy: ReplacementPolicy,
                  realizes_costs: bool) -> type:
        """The class to wrap ``policy`` in on a runtime that does (or
        does not) realize costs (``DirectHandler`` decides)."""
        return cls

    @staticmethod
    def new_lock(runtime: Runtime, name: str, costs: CostModel) -> MutexLock:
        return runtime.create_lock(
            name=name, grant_cost_us=costs.lock_grant_us,
            try_cost_us=costs.try_lock_us)

    def lock_stats(self) -> LockStats:
        """One lock's live counters, or a merged copy for several."""
        stats = self.lock.stats
        for lock in self.locks[1:]:
            stats = stats.merged_with(lock.stats)
        return stats

    def new_slot(self, thread: ThreadContext, thread_id: int) -> ThreadSlot:
        """``thread``'s private state for this pool."""
        return ThreadSlot(thread, thread_id, self.control.queue_size)

    def queues(self, slots: Sequence[ThreadSlot]) -> List[AccessQueue]:
        """The queues recorded hits wait in: ``slots``' private ones."""
        return [slot.queue for slot in slots]

    def _control_tick(self, slot: ThreadSlot) -> None:
        """Give an attached controller its per-commit observation."""
        controller = self.control.controller
        if controller is not None:
            controller.on_commit(self, slot)

    # -- hit path ------------------------------------------------------------

    @abstractmethod
    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Iterable[Wait]:
        """Handle replacement bookkeeping for a buffer hit.

        Returns an iterable for the manager to ``yield from`` unless it
        is empty: ``()`` (or ``thread.spend()``) when the hit cannot
        block, a generator when it may — so a hit that only records
        costs no generator frame, and the manager serves it inline
        (:meth:`~repro.bufmgr.manager.BufferManager.request`). Work
        before the first possible block runs at call time.
        """

    # -- miss path ------------------------------------------------------------

    def acquire_for_miss(self, slot: ThreadSlot, page: BufferTag
                         ) -> Waits:
        """Take the lock for a miss, committing any queued history.

        Misses always lock ("Requesting a lock upon a page miss usually
        is not a concern because the lock acquisition cost is negligible
        compared with the cost of I/O operations", §III-A) and Fig. 4's
        ``replacement_for_page_miss`` commits the queue first, keeping
        history ordered ahead of the miss.
        """
        pages_to_touch = len(slot.queue) + 1
        self._maybe_prefetch(slot, pages_to_touch)
        yield from self.lock.acquire(slot.thread)
        self._warmup_charge(slot, pages_to_touch)
        batch = len(slot.queue)
        self._commit_locked(slot)
        observer = slot.thread.runtime.observer
        if observer is not None:
            observer.on_miss_commit(slot.thread.name, self.lock.name,
                                    slot.thread.runtime.now, batch)
        self._control_tick(slot)

    def release_after_miss(self, slot: ThreadSlot, page: BufferTag
                           ) -> Waits:
        """Finish the miss's critical section and release the lock."""
        # The miss mutated the policy structures: account the write and
        # invalidate other threads' prefetches.
        slot.thread.pending_us += 2 * self.costs.replacement_op_us
        self.cache.note_commit(slot.thread_id)
        if self.realizes_costs:
            yield from slot.thread.spend()
        self.lock.release(slot.thread)

    # -- shared helpers -------------------------------------------------------------

    def _warmup_charge(self, slot: ThreadSlot, n_pages: int) -> None:
        """Charge the cache warm-up stall, degraded by lock-line traffic.

        Threads camped on the lock keep its cache line (and the hot list
        heads) bouncing between processors, so the holder's warm-up
        stalls grow with the number of waiters — the effect that makes
        contention *worsen* throughput as processors are added rather
        than merely cap it (TableScan's 8->16 drop in Fig. 6).
        """
        base = self.cache.warmup_cost(slot.thread_id, n_pages)
        active_waiters = min(self.lock.queue_length,
                             self.costs.coherence_waiter_cap)
        degradation = (1.0 + self.costs.coherence_per_waiter
                       * active_waiters)
        slot.thread.pending_us += base * degradation

    def _maybe_prefetch(self, slot: ThreadSlot, n_pages: int) -> None:
        """Issue software prefetches if configured and not already warm."""
        if self.control.prefetch and not self.cache.is_warm(slot.thread_id):
            slot.thread.pending_us += self.cache.prefetch(
                slot.thread_id, n_pages)

    def flush(self, slot: ThreadSlot) -> Waits:
        """Commit any queued history under the lock (drain-to-empty).

        Used by shutdown paths and the correctness oracle's replay
        driver: after a trace ends, deferred hits must reach the
        algorithm before its final state can be compared against an
        unbatched system's.
        """
        if len(slot.queue) == 0:
            return
        yield from self.lock.acquire(slot.thread)
        self._commit_locked(slot)
        if self.realizes_costs:
            yield from slot.thread.spend()
        self.lock.release(slot.thread)

    def _commit_locked(self, slot: ThreadSlot,
                       queue: Optional[AccessQueue] = None,
                       entries: Optional[List[QueueEntry]] = None) -> None:
        """Replay queued accesses into the algorithm (lock must be held).

        ``queue`` defaults to the slot's own; a handler that already
        drained it (under another lock) passes the ``entries`` too.

        Every entry's tag is compared against the descriptor first;
        stale entries (page evicted or invalidated since enqueue) are
        dropped, exactly as the PostgreSQL implementation does (§IV-B)
        — and reported to the queue so committed-batch accounting
        excludes them.

        The batch is handled whole: one pass finds the live tags and
        folds the per-entry costs into ``thread.pending_us`` in entry
        order (``tag_check_us``, then ``replacement_op_us`` if the entry
        is live — the float sum of charging them one by one, bit for
        bit; both are :class:`~repro.hardware.costs.CostModel`
        constants, validated at construction), and one
        :meth:`~repro.policies.base.ReplacementPolicy.on_hits` replays
        the live tags in FIFO order.
        """
        thread = slot.thread
        if self.lock.owner is not thread:
            raise SimulationError(
                "commit attempted without holding the replacement lock")
        checker = thread.runtime.checker
        if checker is not None:
            checker.on_commit(self.lock.name, thread.name, True)
        if queue is None:
            queue = slot.queue
        if entries is None:
            entries = queue.drain()
        if entries:  # a miss often finds the queue empty
            costs = self.costs
            tag_check = costs.tag_check_us
            replacement_op = costs.replacement_op_us
            total = thread.pending_us
            live = []
            for desc, tag in entries:
                total += tag_check
                if desc.valid and desc.tag == tag:
                    live.append(tag)
                    total += replacement_op
            thread.pending_us = total
            if len(live) < len(entries):
                queue.note_stale(len(entries) - len(live))
            self.policy.on_hits(live)
        if checker is not None:
            checker.on_policy_commit(self.policy)


class DirectHandler(ReplacementHandler):
    """One lock acquisition per hit — the paper's contended baseline
    (``pg2Q``), optionally with prefetching (``pgPre``).

    Its hit is the modelled one: a generator that records the access,
    charges the prefetch and cache warm-up, commits the one-entry
    queue under the lock and realizes the time spent. On a runtime
    that realizes no costs :meth:`build` picks
    :class:`PlainDirectHandler` instead, whose hit is a plain call.
    """

    name = "direct"

    @classmethod
    def suited_to(cls, policy: ReplacementPolicy,
                  realizes_costs: bool) -> type:
        # Without batching the policy's own discipline decides: clock-
        # family hits never touch the lock (and prefetching would have
        # nothing to hide, so the flag is ignored — as in the paper,
        # where pgclock is stock PostgreSQL); every other policy locks.
        if policy.lock_discipline is LockDiscipline.LOCK_FREE_HIT:
            return LockFreeHitHandler
        return DirectHandler if realizes_costs else PlainDirectHandler

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        slot.queue.record(desc, tag)
        slot.thread.pending_us += self.costs.queue_record_us
        self._maybe_prefetch(slot, 1)
        # The lock itself charges its grant cost (SimLock.grant_cost_us).
        yield from self.lock.acquire(slot.thread)
        self._warmup_charge(slot, 1)
        self._commit_locked(slot)
        self.cache.note_commit(slot.thread_id)
        if self.realizes_costs:
            yield from slot.thread.spend()
        self.lock.release(slot.thread)


class PlainDirectHandler(DirectHandler):
    """:class:`DirectHandler` on a runtime that realizes no costs
    (native): a hit is one plain call that takes the lock, replays the
    access into the policy and releases the lock.

    Nothing is modelled, because nothing would read it: no queue round
    trip, no cost adds, no cache model, no ``spend``. What a result
    reads still moves as a one-entry commit moves it: the queue's
    ``commits``, ``total_drained`` and ``total_stale`` (so
    ``mean_batch_size`` and ``stale_queue_entries`` are unchanged),
    and the lock's stats. The commit's ownership guard and §IV-B tag
    check stay. A pool that prefetches (``pgPre``, or a live
    ``control.prefetch`` flip) takes the modelled hit, because its
    prefetch counts come from the cache model.
    """

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Iterable[Wait]:
        if self.control.prefetch:
            return super().hit(slot, desc, tag)
        thread = slot.thread
        lock = self.lock
        lock.acquire(thread)  # blocks at call time on this runtime
        if lock.owner is not thread:
            raise SimulationError(
                "commit attempted without holding the replacement lock")
        queue = slot.queue
        queue.commits += 1
        queue.total_drained += 1
        if desc.valid and desc.tag == tag:
            self.policy.on_hit(tag)
        else:
            queue.total_stale += 1
        lock.release(thread)
        return ()


class BatchedHandler(ReplacementHandler):
    """BP-Wrapper proper: Figure 4's batching protocol (``pgBat`` /
    ``pgBatPre``)."""

    name = "batched"

    #: Fig. 4 line 13: a full queue behind a busy lock waits for it.
    #: The one decision :class:`~repro.core.lossy.LossyBatchedHandler`
    #: reverses.
    blocks_when_full = True

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Iterable[Wait]:
        # Fig. 4 lines 5-6: AccessQueue.record, inlined — recording is
        # all a hit below the threshold does.
        queue = slot.queue
        entries = queue._entries
        batch = len(entries) + 1
        if batch > queue.capacity:
            return self._hit_full(slot, desc, tag)
        entries.append((desc, tag))
        slot.thread.pending_us += self.costs.queue_record_us
        if batch < self.control.batch_threshold:      # Fig. 4 line 7
            return ()
        return self._commit(slot, batch)

    def _hit_full(self, slot: ThreadSlot, desc: BufferDesc,
                  tag: BufferTag) -> Iterable[Wait]:
        """A hit that finds its queue full. Under Fig. 4 none does: the
        hit that filled it blocked for the lock (line 13) and drained
        it."""
        raise ConfigError(OVERFLOW)

    def _commit(self, slot: ThreadSlot, batch: int) -> Waits:
        """Fig. 4 lines 8-18: the threshold is reached, so try to commit
        the ``batch`` queued hits; block only on a full queue."""
        self._maybe_prefetch(slot, batch)
        thread = slot.thread
        if self.realizes_costs:
            # Realize accumulated work so TryLock sees true logical time.
            yield from thread.spend()
        lock = self.lock
        blocking = False
        if not lock.try_acquire(thread):              # Fig. 4 line 8
            if not slot.queue.full or not self.blocks_when_full:
                return                                # Fig. 4 lines 10-12
            blocking = True
            yield from lock.acquire(thread)           # Fig. 4 line 13
        started = self._replay_held(slot, batch)      # Fig. 4 lines 15-17
        if self.realizes_costs:
            yield from thread.spend()
        self._end_commit(slot, started, batch, blocking)

    def _replay_held(self, slot: ThreadSlot, batch: int) -> float:
        """Commit ``slot``'s ``batch`` queued hits under the lock the
        caller just took; returns the commit's start time for
        :meth:`_end_commit` (0.0 when no observer wants it)."""
        runtime = slot.thread.runtime
        started = runtime.now if runtime.observer is not None else 0.0
        self._warmup_charge(slot, batch)
        self._commit_locked(slot)
        self.cache.note_commit(slot.thread_id)
        return started

    def _end_commit(self, slot: ThreadSlot, started: float, batch: int,
                    blocking: bool) -> None:
        """Release the lock after a realized commit (Fig. 4 line 18)."""
        runtime = slot.thread.runtime
        observer = runtime.observer
        if observer is not None:
            # The span covers the commit's realized charges (warm-up,
            # tag checks, algorithm updates) — the lock-holding work
            # batching exists to amortize.
            observer.on_batch_commit(slot.thread.name, self.lock.name,
                                     started, runtime.now, batch,
                                     blocking)
        self.lock.release(slot.thread)
        self._control_tick(slot)


class LockFreeHitHandler(DirectHandler):
    """The clock family's native discipline: hits set a reference bit
    without any lock (stock PostgreSQL 8.2, the paper's ``pgclock``)."""

    name = "lock-free"

    def __init__(self, policy: ReplacementPolicy, *args, **kwargs) -> None:
        super().__init__(policy, *args, **kwargs)
        # On OS-thread backends the unlocked hit races with lock-holding
        # misses; policies expose ``on_hit_relaxed`` (race-tolerant,
        # identical to ``on_hit`` absent concurrency) for exactly this
        # path. Resolved once here so the per-hit cost is one call.
        self._hit_op = getattr(policy, "on_hit_relaxed", policy.on_hit)

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Iterable[Wait]:
        self._hit_op(tag)
        thread = slot.thread
        thread.pending_us += self.costs.ref_bit_us
        if self.realizes_costs:
            # Realize the (tiny) cost inside the pinned section so
            # simulated time stays faithful even on long hit streaks;
            # no lock, no blocking.
            return thread.spend()
        return ()
