"""Buffer descriptors — per-frame metadata.

Mirrors PostgreSQL's ``BufferDesc``: each of the pool's frames has a
descriptor carrying the tag of the page currently (or about to be)
stored there, a validity flag (false while the read I/O is in flight),
and the pins protecting the frame from eviction while in use.

Pins are entries of a list: pinning appends one, unpinning deletes one.
``list.append`` and ``del list[i]`` are single C operations, atomic
under the GIL and under a free-threaded build's per-list lock, so
pin/unpin need no header lock on any runtime.

BP-Wrapper's queue entries hold ``(descriptor, tag-at-enqueue-time)``
pairs; because commits are deferred, the descriptor may have been
recycled for a different page by commit time, which the recorded tag
detects (§IV-B).
"""

from __future__ import annotations

from typing import List, Optional

from repro.bufmgr.tags import BufferTag
from repro.errors import BufferError_
from repro.runtime.base import WaitEvent

__all__ = ["BufferDesc", "FIRST_PIN"]

#: Index of the first pin in a descriptor's pin list. Entry 0 is a
#: placeholder (None) the list never loses: CPython frees a list's item
#: array when the list empties, so without it every last unpin would
#: free the array and the next pin allocate it again. With it the array
#: keeps its 4 slots, and pins up to three deep allocate nothing.
#: ``del pins[FIRST_PIN]`` drops one pin (True) and raises IndexError
#: when there is none, so the count cannot go negative. ``pins[-1]`` is
#: true exactly when the frame is pinned: the call-free test the hot
#: paths use.
FIRST_PIN = 1


class BufferDesc:
    """Metadata for one buffer frame."""

    __slots__ = ("frame_id", "tag", "valid", "dirty", "pins",
                 "io_done", "generation")

    def __init__(self, frame_id: int) -> None:
        self.frame_id = frame_id
        self.tag: Optional[BufferTag] = None
        #: False while the frame's contents are being read from disk.
        self.valid = False
        #: True when the page has uncommitted modifications: the frame
        #: cannot be reused until the contents are written back.
        self.dirty = False
        #: The placeholder, then one True per pin (see
        #: :data:`FIRST_PIN`). The manager's hit, miss and victim paths
        #: operate on it directly; everything else uses pin/unpin.
        self.pins: List[Optional[bool]] = [None]
        #: Event other threads wait on while the read I/O is in flight
        #: (a runtime-backend :class:`~repro.runtime.base.WaitEvent`).
        self.io_done: Optional[WaitEvent] = None
        #: Bumped every time the frame is re-tagged; lets tests detect
        #: ABA recycling that tag comparison alone could miss.
        self.generation = 0

    @property
    def pin_count(self) -> int:
        return len(self.pins) - FIRST_PIN

    @property
    def pinned(self) -> bool:
        return self.pins[-1] is True

    def pin(self) -> None:
        self.pins.append(True)

    def unpin(self) -> None:
        try:
            del self.pins[FIRST_PIN]
        except IndexError:
            raise BufferError_(
                f"frame {self.frame_id}: unpin without matching pin"
            ) from None

    def retag(self, tag: BufferTag) -> None:
        """Point the frame at a new page (contents not yet valid)."""
        self.tag = tag
        self.valid = False
        self.dirty = False
        self.generation += 1

    def matches(self, tag: BufferTag) -> bool:
        """BP-Wrapper's commit-time validity check (the commit's one
        pass over a batch inlines it)."""
        return self.valid and self.tag == tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "valid" if self.valid else "io"
        return (f"<BufferDesc #{self.frame_id} tag={self.tag} {state} "
                f"pins={self.pin_count}>")
