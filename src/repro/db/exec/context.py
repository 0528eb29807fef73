"""Execution contexts: how operators reach pages.

Operators (see :mod:`repro.db.exec.operators`) are written once and run
against two very different substrates through the same ``yield from
ctx.fetch(...)`` call:

* :class:`LiveExecContext` drives a real
  :class:`~repro.bufmgr.manager.BufferManager` through ``request``
  with ``keep_pin`` — a hit that cannot wait is served by that call,
  anything else suspends on simulator (or native runtime) events in
  the request's continuation — and returns a :class:`PinnedPage`
  whose pin the operator owns until it releases the handle. This is
  what makes pin-aware victim selection load-bearing: a scan's current
  page and a join's outer page stay pinned while other threads hunt
  for victims.

* :class:`TraceExecContext` touches no buffer manager at all: it
  records the page/write sequence the plan *would* produce. Its
  ``fetch`` is a generator that never suspends, so the identical
  operator code runs synchronously — that is how
  :class:`~repro.workloads.tpcc_lite.TpccLiteWorkload` flattens plans
  into classic :class:`~repro.db.transactions.Transaction` streams.

* :class:`ShardedExecContext` routes each page to one of N independent
  :class:`~repro.serve.shard.BufferShard` pools by stable hash — the
  serving-layer flavor of the macro tier.

All three tally a per-operator breakdown (accesses / writes / hits)
that the macro dashboard renders.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.bufmgr.tags import PageId
from repro.errors import BufferError_

__all__ = ["ExecContext", "LiveExecContext", "PinnedPage",
           "ShardedExecContext", "TraceExecContext"]


class PinnedPage:
    """A fetched page whose pin (if any) the holder must release."""

    __slots__ = ("page", "desc", "hit", "_shard")

    def __init__(self, page: PageId, desc=None, hit: bool = False,
                 shard: Optional[int] = None) -> None:
        self.page = page
        self.desc = desc
        self.hit = hit
        self._shard = shard

    def __repr__(self) -> str:
        state = "pinned" if self.desc is not None else "trace"
        return f"<PinnedPage {self.page} {state}>"


class ExecContext:
    """Shared bookkeeping: per-operator access tallies, live pins."""

    def __init__(self) -> None:
        #: op name -> {"accesses": n, "writes": n, "hits": n}
        self.op_stats: Dict[str, Dict[str, int]] = {}
        self._live: List[PinnedPage] = []

    def _tally(self, op_name: str, is_write: bool, hit: bool) -> None:
        entry = self.op_stats.get(op_name)
        if entry is None:
            entry = {"accesses": 0, "writes": 0, "hits": 0}
            self.op_stats[op_name] = entry
        entry["accesses"] += 1
        if is_write:
            entry["writes"] += 1
        if hit:
            entry["hits"] += 1

    @property
    def pins_held(self) -> int:
        return len(self._live)

    @property
    def total_accesses(self) -> int:
        return sum(entry["accesses"] for entry in self.op_stats.values())

    @property
    def total_hits(self) -> int:
        return sum(entry["hits"] for entry in self.op_stats.values())

    def release(self, handle: PinnedPage) -> None:
        """Drop one fetch's pin. Idempotent per handle."""
        try:
            self._live.remove(handle)
        except ValueError:
            return
        if handle.desc is not None:
            handle.desc.unpin()
            handle.desc = None

    def release_all(self) -> None:
        """Abort path: drop every pin this context still holds."""
        while self._live:
            self.release(self._live[-1])

    def merged_op_stats(self) -> Dict[str, Dict[str, int]]:
        return {name: dict(entry)
                for name, entry in sorted(self.op_stats.items())}


class LiveExecContext(ExecContext):
    """Fetches go through one thread's slot into one buffer manager."""

    def __init__(self, slot, manager) -> None:
        super().__init__()
        self.slot = slot
        self.manager = manager

    def fetch(self, op_name: str, page: PageId, is_write: bool = False
              ) -> Generator[object, None, PinnedPage]:
        served = self.manager.request(self.slot, page, is_write, True)
        if served.__class__ is not tuple:  # a continuation: it may wait
            served = yield from served
        hit, desc = served
        self._tally(op_name, is_write, hit)
        handle = PinnedPage(page, desc, hit)
        self._live.append(handle)
        return handle


class ShardedExecContext(ExecContext):
    """Fetches route to independent shards by stable page hash.

    ``slots[k]`` must be this thread's private
    :class:`~repro.core.bpwrapper.ThreadSlot` for shard ``k`` — slots
    hold per-thread FIFO queues and cannot be shared across shards.
    """

    def __init__(self, slots, shards) -> None:
        from repro.serve.shard import shard_of
        super().__init__()
        if len(slots) != len(shards):
            raise BufferError_(
                f"{len(slots)} slots for {len(shards)} shards")
        self.slots = list(slots)
        self.shards = list(shards)
        self._shard_of = shard_of

    def fetch(self, op_name: str, page: PageId, is_write: bool = False
              ) -> Generator[object, None, PinnedPage]:
        index = self._shard_of(page, len(self.shards))
        shard = self.shards[index]
        served = shard.manager.request(self.slots[index], page, is_write,
                                       True)
        if served.__class__ is not tuple:  # a continuation: it may wait
            served = yield from served
        hit, desc = served
        self._tally(op_name, is_write, hit)
        handle = PinnedPage(page, desc, hit, shard=index)
        self._live.append(handle)
        return handle


class TraceExecContext(ExecContext):
    """Records the access stream instead of executing it.

    ``fetch`` is still a generator function (so ``yield from`` works in
    operator code) but never suspends; drive plans with
    :func:`~repro.db.exec.executor.drain_plan`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pages: List[PageId] = []
        self.write_indices: set = set()

    def fetch(self, op_name: str, page: PageId, is_write: bool = False
              ) -> Generator[object, None, PinnedPage]:
        if is_write:
            self.write_indices.add(len(self.pages))
        self.pages.append(page)
        self._tally(op_name, is_write, hit=False)
        handle = PinnedPage(page)
        self._live.append(handle)
        return handle
        yield  # pragma: no cover — makes this a generator function

    def reset(self) -> None:
        """Clear the recorded stream (pins first) for the next plan."""
        self.release_all()
        self.pages = []
        self.write_indices = set()
