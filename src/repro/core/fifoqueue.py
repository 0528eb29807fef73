"""The per-thread FIFO access queue (Fig. 3 / Fig. 4 of the paper).

Each transaction-processing thread owns one :class:`AccessQueue`. On a
page hit the thread records a :data:`QueueEntry` — a plain
``(desc, tag)`` pair: the buffer descriptor plus the ``BufferTag``
observed at enqueue time (§IV-B: "each entry in the FIFO queues consists
of two fields: one is a pointer to the meta-data of a buffer page
(BufferDesc structure), and the other stores BufferTag"). A bare tuple,
not a named one, because recording is the hit path's one unavoidable
step. Commits drain the queue in FIFO order, preserving the thread's
precise access order, which is the property the paper's private-queue
design exists to keep (§III-A).

The queue is deliberately *not* thread-safe in any simulated sense: it
is private to its thread, which is the whole point — recording into it
requires no synchronization at all.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.errors import ConfigError

__all__ = ["QueueEntry", "AccessQueue", "OVERFLOW"]


#: One recorded page hit: ``(descriptor, tag at enqueue time)``.
QueueEntry = Tuple[BufferDesc, BufferTag]

#: The error recording into a full queue raises.
OVERFLOW = ("access queue overflow: commit must run before recording "
            "into a full queue")


class AccessQueue:
    """Fixed-capacity FIFO of recorded page hits."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: List[QueueEntry] = []
        # Lifetime accounting (Table II/III use these).
        #: Entries removed by :meth:`drain` (committed + stale).
        self.total_drained = 0
        #: Drained entries the committer dropped because their page had
        #: been evicted or invalidated since enqueue (§IV-B tag check).
        #: Reported back via :meth:`note_stale`.
        self.total_stale = 0
        self.commits = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def record(self, desc: BufferDesc, tag: BufferTag) -> int:
        """Append one hit (Fig. 4 lines 5-6) and return the queue's new
        length. The caller checks bounds via :attr:`full` before any
        further recording."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise ConfigError(OVERFLOW)
        entries.append((desc, tag))
        return len(entries)

    def drain(self) -> List[QueueEntry]:
        """Remove and return all entries, oldest first (Fig. 4 line 15).

        Drained entries are *candidates* for commit; the committer must
        report any it drops as stale via :meth:`note_stale` so
        :attr:`total_committed` counts only accesses that actually
        reached the replacement algorithm.
        """
        entries, self._entries = self._entries, []
        self.commits += 1
        self.total_drained += len(entries)
        return entries

    def note_stale(self, n: int = 1) -> None:
        """Report ``n`` drained entries dropped by the commit-time tag
        check, excluding them from :attr:`total_committed`."""
        if n < 0:
            raise ConfigError(f"stale count must be >= 0, got {n}")
        self.total_stale += n
        if self.total_stale > self.total_drained:
            raise ConfigError(
                f"stale entries ({self.total_stale}) cannot exceed "
                f"drained entries ({self.total_drained})")

    @property
    def total_committed(self) -> int:
        """Drained accesses actually replayed into the algorithm.

        Excludes stale drops: ``drain`` counts what left the queue, but
        an entry whose BufferTag no longer matches is discarded by the
        committer and never reaches the policy, so counting it would
        overstate ``mean_batch_size`` and the Table II/III accounting.
        """
        return self.total_drained - self.total_stale

    def mean_batch_size(self) -> float:
        """Average number of accesses committed per lock acquisition
        (stale drops excluded)."""
        if self.commits == 0:
            return 0.0
        return self.total_committed / self.commits
