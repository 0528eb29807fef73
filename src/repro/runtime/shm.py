"""The shared frame table of the ``mp`` backend (:mod:`repro.runtime.mp`).

One anonymous shared mapping of little-endian int64 words
(``memoryview.cast("q")`` — every field is one aligned 8-byte word, so
a store is a single indivisible write on the architectures we run on).
Forked workers inherit it; it has no name, so no run leaves anything
under ``/dev/shm``.

=========  =============================================================
region     contents
=========  =============================================================
header     ``HDR_WORDS`` words: LRU head/tail, clock hand
page map   one word per page: frame index holding it, or -1
           (the dense-page-space stand-in for the buffer hash table;
           probes are lock-free, every probe is revalidated against
           the frame's tag afterwards)
frames     ``FRAME_WORDS`` fixed-width words per frame: tag,
           generation, pin count, reference bit, LRU prev/next links
=========  =============================================================

The BP-Wrapper FIFO queues are not here: no other process reads a
worker's queue, so each worker keeps a private in-process
:class:`~repro.core.fifoqueue.AccessQueue` of (frame, generation)
pairs, exactly as the paper's per-thread queues.
"""

from __future__ import annotations

import mmap
import multiprocessing
from typing import Any, List

from repro.errors import SimulationError

__all__ = ["FRAME_WORDS", "HDR_WORDS", "HEADER_LOCK_STRIPES", "FrameTable"]

#: Header words: LRU head, LRU tail, clock hand, padded to one 64-byte
#: cache line so the lock-free page-map probes never share it.
HDR_WORDS = 8
H_LRU_HEAD, H_LRU_TAIL, H_CLOCK_HAND = range(3)

#: Fixed-width frame struct: tag (page index, -1 empty), generation
#: (bumped on retag), pin count, reference bit, LRU prev, LRU next.
FRAME_WORDS = 6
F_TAG, F_GEN, F_PIN, F_REF, F_PREV, F_NEXT = range(FRAME_WORDS)

#: Frame header locks are striped: ``frame % HEADER_LOCK_STRIPES``.
HEADER_LOCK_STRIPES = 64


class FrameTable:
    """The frame table, built (and pre-warmed) by the parent before the
    fork; every worker closes over it and calls its methods.

    ``ordered`` is the run's pages in dense-id order, the resident
    prefix first.
    """

    __slots__ = ("mem", "lay", "capacity", "page_index", "glock", "stripes")

    def __init__(self, ordered: List[Any], capacity: int) -> None:
        self.page_index = {page: i for i, page in enumerate(ordered)}
        self.capacity = capacity
        n_pages = len(ordered)
        # Word offsets of every region.
        page_map = HDR_WORDS
        frames = page_map + n_pages
        total = frames + capacity * FRAME_WORDS
        lay = self.lay = {"page_map": page_map, "frames": frames,
                          "total": total}
        # A fresh mapping is all zeros: only the -1 sentinels are written.
        mem = self.mem = memoryview(
            mmap.mmap(-1, max(lay["total"], 1) * 8)).cast("q")
        mem[H_LRU_HEAD] = -1
        mem[H_LRU_TAIL] = -1
        for word in range(n_pages):
            mem[lay["page_map"] + word] = -1
        for frame in range(capacity):
            off = lay["frames"] + frame * FRAME_WORDS
            mem[off + F_TAG] = -1
            mem[off + F_PREV] = -1
            mem[off + F_NEXT] = -1
        context = multiprocessing.get_context("fork")
        #: The replacement lock and the striped frame header locks.
        self.glock = context.Lock()
        self.stripes = [context.Lock()
                        for _ in range(min(HEADER_LOCK_STRIPES, capacity))]
        _prewarm(self, ordered)

    # frame-word accessors (hot path: inlined offsets, no helpers)

    def stripe(self, frame: int):
        return self.stripes[frame % len(self.stripes)]

    # -- LRU list surgery (global lock must be held) --------------------

    def lru_unlink(self, frame: int) -> None:
        mem, base = self.mem, self.lay["frames"]
        off = base + frame * FRAME_WORDS
        prev, nxt = mem[off + F_PREV], mem[off + F_NEXT]
        if prev >= 0:
            mem[base + prev * FRAME_WORDS + F_NEXT] = nxt
        else:
            mem[H_LRU_HEAD] = nxt
        if nxt >= 0:
            mem[base + nxt * FRAME_WORDS + F_PREV] = prev
        else:
            mem[H_LRU_TAIL] = prev
        mem[off + F_PREV] = -1
        mem[off + F_NEXT] = -1

    def lru_push_front(self, frame: int) -> None:
        mem, base = self.mem, self.lay["frames"]
        off = base + frame * FRAME_WORDS
        head = mem[H_LRU_HEAD]
        mem[off + F_PREV] = -1
        mem[off + F_NEXT] = head
        if head >= 0:
            mem[base + head * FRAME_WORDS + F_PREV] = frame
        else:
            mem[H_LRU_TAIL] = frame
        mem[H_LRU_HEAD] = frame

    def lru_move_front(self, frame: int) -> None:
        if self.mem[H_LRU_HEAD] == frame:
            return
        self.lru_unlink(frame)
        self.lru_push_front(frame)

    # -- eviction (global lock must be held) ----------------------------

    def evict_lru(self) -> int:
        """Unlink and return the coldest unpinned frame (LRU tail)."""
        mem, base = self.mem, self.lay["frames"]
        frame = mem[H_LRU_TAIL]
        while frame >= 0:
            if mem[base + frame * FRAME_WORDS + F_PIN] == 0:
                self.lru_unlink(frame)
                return frame
            frame = mem[base + frame * FRAME_WORDS + F_PREV]
        raise SimulationError("mp pool: every frame is pinned")

    def evict_clock(self) -> int:
        """CLOCK sweep: clear reference bits until a clear one is found."""
        mem, base, cap = self.mem, self.lay["frames"], self.capacity
        hand = mem[H_CLOCK_HAND]
        for _step in range(2 * cap + 1):
            off = base + hand * FRAME_WORDS
            if mem[off + F_PIN] != 0:
                hand = (hand + 1) % cap
                continue
            if mem[off + F_REF]:
                mem[off + F_REF] = 0
                hand = (hand + 1) % cap
                continue
            mem[H_CLOCK_HAND] = (hand + 1) % cap
            return hand
        raise SimulationError("mp pool: clock swept twice, all pinned")

    def retag(self, frame: int, tag: int) -> bool:
        """Point ``frame`` at ``tag`` (global lock held; header-locked).

        Returns ``False`` without touching the frame if a racing hit
        pinned it between the eviction scan's unlocked pin probe and
        this header-locked recheck — the caller must pick another
        victim. This is the authoritative pin check; the scan's probe
        is only a filter.
        """
        mem = self.mem
        off = self.lay["frames"] + frame * FRAME_WORDS
        pmap = self.lay["page_map"]
        with self.stripe(frame):
            if mem[off + F_PIN] != 0:
                return False
            old = mem[off + F_TAG]
            if old >= 0:
                mem[pmap + old] = -1
            mem[off + F_GEN] += 1
            mem[off + F_TAG] = tag
            mem[off + F_REF] = 1
            mem[pmap + tag] = frame
            return True


def _prewarm(table: FrameTable, ordered: List[Any]) -> None:
    """Install the access-ordered resident prefix (no stats recorded)."""
    mem, lay = table.mem, table.lay
    for frame, page in enumerate(ordered[:table.capacity]):
        off = lay["frames"] + frame * FRAME_WORDS
        tag = table.page_index[page]
        mem[off + F_TAG] = tag
        mem[off + F_REF] = 1
        mem[lay["page_map"] + tag] = frame
        # Push-front in order: the last-installed page ends up MRU.
        table.lru_push_front(frame)
