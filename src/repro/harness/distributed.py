"""The distributed-lock comparator (§V-A), built for ablations.

Oracle Universal Server, ADABAS and Mr.LRU attack replacement-lock
contention by splitting the buffer into many lists, each under its own
lock. We implement the Mr.LRU flavour — pages are routed to partitions
by hashing, so a page always returns to the same list — because it is
the only variant under which algorithms like 2Q and LIRS work at all.

The paper's critique, which ``benchmarks/bench_ablation.py``
demonstrates quantitatively:

* history is localized per partition, hurting hit ratios (and making
  sequence detection impossible — see SEQ);
* accesses are *not* evenly distributed even when pages are: hot pages
  (index roots) still pile onto one partition's lock.
"""

from __future__ import annotations

from typing import List

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.control.state import ControlState
from repro.core.bpwrapper import ReplacementHandler, ThreadSlot
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.base import LockDiscipline
from repro.policies.partitioned import PartitionedPolicy
from repro.runtime.base import MutexLock, Waits

__all__ = ["DistributedHandler"]


class DistributedHandler(ReplacementHandler):
    """One lock per buffer partition; no batching, no prefetching."""

    name = "distributed"

    def __init__(self, policy: PartitionedPolicy, locks: List[MutexLock],
                 metadata_caches: List[MetadataCacheModel], costs,
                 control: ControlState) -> None:
        # The base-class ``lock``/``cache`` slots hold partition 0 purely
        # for interface compatibility; all real work routes by page.
        super().__init__(policy, locks[0], metadata_caches[0], costs,
                         control)
        self.locks = locks
        self.caches = metadata_caches

    @classmethod
    def build(cls, runtime, name, make_policy, capacity, costs,
              control) -> "DistributedHandler":
        # 16 partitions, but keep each at least 8 pages: degenerate
        # one-page partitions cannot honour pins (and no real system
        # configures them).
        n_partitions = max(1, min(16, capacity // 8))
        policy = PartitionedPolicy(capacity, n_partitions, make_policy)
        locks = [cls.new_lock(runtime, f"partition-{i}", costs)
                 for i in range(n_partitions)]
        caches = [MetadataCacheModel(costs) for _ in range(n_partitions)]
        handler = cls(policy, locks, caches, costs, control)
        handler.realizes_costs = runtime.realizes_costs
        return handler

    def _route(self, page: BufferTag):
        index = self.policy.partition_of(page)
        return index, self.locks[index], self.caches[index]

    def _report(self, slot: ThreadSlot, index: int) -> None:
        """Tell an attached checker that ``slot`` just updated
        partition ``index``'s policy and still holds its lock: the
        commit-under-lock rule and the invariant sweep that
        :meth:`_commit_locked` reports for a single lock."""
        checker = slot.thread.runtime.checker
        if checker is not None:
            lock = self.locks[index]
            checker.on_commit(lock.name, slot.thread.name,
                              lock.owner is slot.thread)
            checker.on_policy_commit(self.policy.partitions[index])

    def hit(self, slot: ThreadSlot, desc: BufferDesc, tag: BufferTag
            ) -> Waits:
        index, lock, cache = self._route(tag)
        if self.policy.lock_discipline is LockDiscipline.LOCK_FREE_HIT:
            self.policy.on_hit(tag)
            slot.thread.pending_us += self.costs.ref_bit_us
            if self.realizes_costs:
                yield from slot.thread.spend()
            return
        yield from lock.acquire(slot.thread)
        slot.thread.pending_us += cache.warmup_cost(slot.thread_id, 1)
        self.policy.on_hit(tag)
        slot.thread.pending_us += self.costs.replacement_op_us
        cache.note_commit(slot.thread_id)
        self._report(slot, index)
        if self.realizes_costs:
            yield from slot.thread.spend()
        lock.release(slot.thread)

    def acquire_for_miss(self, slot: ThreadSlot, page: BufferTag
                         ) -> Waits:
        _, lock, cache = self._route(page)
        yield from lock.acquire(slot.thread)
        slot.thread.pending_us += cache.warmup_cost(slot.thread_id, 1)

    def release_after_miss(self, slot: ThreadSlot, page: BufferTag
                           ) -> Waits:
        index, lock, cache = self._route(page)
        self._report(slot, index)
        slot.thread.pending_us += 2 * self.costs.replacement_op_us
        cache.note_commit(slot.thread_id)
        if self.realizes_costs:
            yield from slot.thread.spend()
        lock.release(slot.thread)
