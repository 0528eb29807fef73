"""One buffer-pool shard: a full BP-Wrapper stack plus serve state.

A shard is what :func:`~repro.harness.systems.build_system` already
produces — policy, replacement lock, handler, buffer manager — with
two serve-layer additions: a shard-scoped lock name (so traces,
metrics and the dashboard heatmap attribute contention to the right
shard) and the in-flight depth counter backpressure reads. Unlike
:class:`~repro.policies.partitioned.PartitionedPolicy`, which splits
*one* pool's policy under one manager, shards are fully independent
pools: private frames, private hash table, private replacement lock,
private BP-Wrapper queues.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.bufmgr.tags import PageId
from repro.harness.systems import SystemBuild, build_system
from repro.runtime.base import Runtime
from repro.util import stable_hash

__all__ = ["BufferShard", "shard_of"]


def shard_of(page: PageId, n_shards: int) -> int:
    """The shard ``page`` routes to — same process-independent hash as
    :meth:`~repro.policies.partitioned.PartitionedPolicy.partition_of`,
    so routing is reproducible across invocations and a page always
    returns to the same shard after eviction (the Mr.LRU guarantee,
    lifted from partitions to pools)."""
    return stable_hash(page) % n_shards


class BufferShard:
    """An independent buffer pool serving one hash slice of the pages."""

    def __init__(self, runtime: "Runtime", shard_id: int, system: str,
                 capacity: int, machine, policy_name: Optional[str] = None,
                 queue_size: int = 16, batch_threshold: int = 8,
                 disk=None) -> None:
        self.shard_id = shard_id
        self.build: SystemBuild = build_system(
            system, runtime, capacity, machine, policy_name=policy_name,
            queue_size=queue_size, batch_threshold=batch_threshold,
            disk=disk)
        self.manager = self.build.manager
        self.handler = self.build.handler
        # Per-lock metrics, spans and the heatmap stay per-shard.
        for lock in self.handler.locks:
            lock.name = f"shard{shard_id}:{lock.name}"
        self.capacity = capacity
        #: Requests currently admitted and executing against this shard.
        self.in_flight = 0
        self.peak_in_flight = 0
        #: Requests that found the shard at its depth limit (counted
        #: once per request, not per retry).
        self.backpressure_events = 0
        #: Mutex for admit/done under the native runtime (None = sim,
        #: where events are atomic between yields).
        self.admit_mutex = None

    # -- admission bookkeeping ---------------------------------------------

    def admit(self) -> None:
        if self.admit_mutex is not None:
            with self.admit_mutex:
                self._admit_locked()
            return
        self._admit_locked()

    def _admit_locked(self) -> None:
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def done(self) -> None:
        if self.admit_mutex is not None:
            with self.admit_mutex:
                self.in_flight -= 1
            return
        self.in_flight -= 1

    # -- state inspection --------------------------------------------------

    @property
    def control(self):
        """The shard's :class:`~repro.control.state.ControlState`."""
        return self.build.control

    def warm_with(self, pages: Iterable[PageId]) -> int:
        return self.manager.warm_with(pages)

    def resident_pages(self) -> List[PageId]:
        return list(self.manager.policy.resident_keys())

    def to_record(self) -> dict:
        """JSON-able per-shard record (deterministic under the sim)."""
        stats = self.manager.stats
        lock = self.handler.lock_stats()
        record = {
            "shard": self.shard_id,
            "capacity": self.capacity,
            "resident": self.manager.resident_count,
            "accesses": stats.accesses,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_ratio": (round(stats.hits / stats.accesses, 6)
                          if stats.accesses else 0.0),
            "peak_in_flight": self.peak_in_flight,
            "backpressure_events": self.backpressure_events,
            "lock_requests": lock.requests,
            "lock_acquisitions": lock.acquisitions,
            "lock_contentions": lock.contentions,
            "contention_rate": round(lock.contention_rate, 6),
            "contention_per_million": round(
                lock.contentions_per_million(stats.accesses), 3),
            "lock_wait_us": round(lock.total_wait_us, 3),
            "lock_hold_us": round(lock.total_hold_us, 3),
        }
        summary = self.build.controller_summary()
        if summary is not None:
            # Controlled shards record where the knob landed; plain
            # shards keep the pre-control-plane record byte-for-byte.
            record["batch_threshold"] = summary.pop("batch_threshold")
            record["controller"] = summary
        return record
