"""The design alternative the paper rejects: one shared FIFO queue.

§III-A: "In the design of the batching technique, an alternative is to
use one common FIFO queue shared by multiple threads. However, we
choose to use a private FIFO queue for each thread" because the private
queue (1) preserves each thread's precise access order and (2) incurs
"the least synchronization and coherence cost, which is required for
the shared FIFO queue when multiple threads fill or clear the queue."

:class:`SharedQueueHandler` implements the rejected alternative
faithfully so the cost can be measured (``benchmarks/
bench_ablation.py``): every hit must take a *record lock* to append to
the common queue, so batching's whole point — hits that touch no
shared state — is lost. The record lock's critical section is tiny,
but it is back to one lock acquisition per page access, and the queue
tail's cache line ping-pongs between processors.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.control.state import ControlState
from repro.core.bpwrapper import ReplacementHandler, ThreadSlot
from repro.core.fifoqueue import AccessQueue, QueueEntry
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.base import ReplacementPolicy
from repro.runtime.base import MutexLock, Waits

__all__ = ["SharedQueueHandler"]


class SharedQueueHandler(ReplacementHandler):
    """Batching through one common queue under a record lock."""

    name = "shared-queue"

    #: Extra per-record cost: the shared tail's cache line bounces
    #: between processors on every append.
    RECORD_COHERENCE_US = 0.5
    extra_locks = ("shared-queue-record",)

    def __init__(self, policy: ReplacementPolicy, lock: MutexLock,
                 metadata_cache: MetadataCacheModel, costs: CostModel,
                 control: ControlState, record_lock: MutexLock) -> None:
        super().__init__(policy, lock, metadata_cache, costs, control)
        # The record lock's contention is the price of sharing the queue;
        # merging it into ``lock_stats`` is the honest comparison.
        self.record_lock = record_lock
        self.locks.append(record_lock)
        # One queue for everyone; sized for the whole thread population
        # (a real implementation would size it n_threads * per-thread).
        self.shared_queue = AccessQueue(max(control.queue_size * 64, 64))
        #: Recordings skipped because even the oversized common queue
        #: was full (all commit attempts losing the lock race).
        self.dropped_records = 0

    def queues(self, slots: Sequence[ThreadSlot]) -> List[AccessQueue]:
        """The one common queue, whatever the slots."""
        return [self.shared_queue]

    # -- hit path ------------------------------------------------------------

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        # Appending requires synchronization — the cost the paper's
        # private queues avoid.
        yield from self.record_lock.acquire(slot.thread)
        slot.thread.pending_us += (self.costs.queue_record_us
                                   + self.RECORD_COHERENCE_US)
        if not self.shared_queue.full:
            self.shared_queue.record(desc, tag)
        else:
            self.dropped_records += 1
        over_threshold = len(self.shared_queue) >= self.control.batch_threshold
        if self.realizes_costs:
            yield from slot.thread.spend()
        self.record_lock.release(slot.thread)
        if not over_threshold:
            return
        if not self.lock.try_acquire(slot.thread):
            if not self.shared_queue.full:
                return
            yield from self.lock.acquire(slot.thread)
        yield from self._drain_and_commit(slot)
        if self.realizes_costs:
            yield from slot.thread.spend()
        self.lock.release(slot.thread)
        self._control_tick(slot)

    # -- miss path ------------------------------------------------------------

    def acquire_for_miss(self, slot: ThreadSlot, page: BufferTag
                         ) -> Waits:
        self._maybe_prefetch(slot, len(self.shared_queue) + 1)
        yield from self.lock.acquire(slot.thread)
        yield from self._drain_and_commit(slot)

    # release_after_miss inherited: note_commit + spend + release.

    # -- internals -----------------------------------------------------------------

    def _drain_and_commit(self, slot: ThreadSlot
                          ) -> Waits:
        """Drain the common queue (under the record lock) and replay."""
        yield from self.record_lock.acquire(slot.thread)
        entries: List[QueueEntry] = self.shared_queue.drain()
        slot.thread.pending_us += self.costs.queue_record_us
        if self.realizes_costs:
            yield from slot.thread.spend()
        self.record_lock.release(slot.thread)
        self._warmup_charge(slot, max(1, len(entries)))
        self._commit_locked(slot, self.shared_queue, entries)
        self.cache.note_commit(slot.thread_id)
