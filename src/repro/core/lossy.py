"""The lossy-batching variant — BP-Wrapper's modern descendant.

BP-Wrapper blocks on ``Lock()`` when a thread's FIFO queue fills
(Fig. 4 line 13): no access history is ever lost. A decade later,
Caffeine (the JVM's dominant cache, whose design credits this paper)
took the idea one step further: its striped read buffer simply *drops*
recordings when full, because losing a sliver of hit history costs a
replacement algorithm almost nothing — hot pages get re-referenced and
re-recorded immediately — while never blocking costs literally zero
contention.

:class:`LossyBatchedHandler` implements that variant so the trade-off
can be measured (``benchmarks/bench_ablation.py``):

* hits: Fig. 4 as :class:`BatchedHandler` transcribes it, with one
  decision reversed — a full queue behind a busy lock does not block
  (``blocks_when_full = False``); the queue stays full and later hits
  try once to flush it, dropping their recording while the lock is
  busy;
* misses: unchanged (they must run the algorithm anyway).

The ``dropped_accesses`` counter plus the hit-ratio deferral study in
:func:`repro.analysis.hitratio.replay_lossy` quantify the cost side.
"""

from __future__ import annotations

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.core.bpwrapper import BatchedHandler, ThreadSlot
from repro.runtime.base import Waits

__all__ = ["LossyBatchedHandler"]


class LossyBatchedHandler(BatchedHandler):
    """Batching that drops rather than blocks (Caffeine-style)."""

    name = "lossy-batched"
    blocks_when_full = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Hit recordings discarded because the queue was full and the
        #: lock busy.
        self.dropped_accesses = 0

    def _hit_full(self, slot: ThreadSlot, desc: BufferDesc,
                  tag: BufferTag) -> Waits:
        """Try once to flush the full queue; if the lock is busy, lose
        this access. A hit that finds room is :class:`BatchedHandler`'s
        own, which reads the queue length once and calls this only when
        the queue is full (and finishes the request after it)."""
        if self.realizes_costs:
            yield from slot.thread.spend()
        if not self.lock.try_acquire(slot.thread):
            self.dropped_accesses += 1
            slot.thread.pending_us += self.costs.queue_record_us
            return
        batch = len(slot.queue)
        started = self._replay_held(slot, batch)
        if self.realizes_costs:
            yield from slot.thread.spend()
        self._end_commit(slot, started, batch, False)
        # The flush emptied the queue: this hit opens the next batch.
        slot.queue._entries.append((desc, tag))
        slot.thread.pending_us += self.costs.queue_record_us
        if self.control.batch_threshold <= 1:         # Fig. 4 line 7
            yield from self._commit(slot, 1)
