"""Buffer descriptors — per-frame metadata.

Mirrors PostgreSQL's ``BufferDesc``: each of the pool's frames has a
descriptor carrying the tag of the page currently (or about to be)
stored there, a validity flag (false while the read I/O is in flight),
and a pin count protecting the frame from eviction while in use.

BP-Wrapper's queue entries hold ``(descriptor, tag-at-enqueue-time)``
pairs; because commits are deferred, the descriptor may have been
recycled for a different page by commit time, which the recorded tag
detects (§IV-B).
"""

from __future__ import annotations

from typing import Optional

from repro.bufmgr.tags import BufferTag
from repro.errors import BufferError_
from repro.runtime.base import WaitEvent

__all__ = ["BufferDesc"]


class BufferDesc:
    """Metadata for one buffer frame."""

    __slots__ = ("frame_id", "tag", "valid", "dirty", "pin_count",
                 "io_done", "generation", "hdr_lock")

    def __init__(self, frame_id: int) -> None:
        self.frame_id = frame_id
        self.tag: Optional[BufferTag] = None
        #: False while the frame's contents are being read from disk.
        self.valid = False
        #: True when the page has uncommitted modifications: the frame
        #: cannot be reused until the contents are written back.
        self.dirty = False
        self.pin_count = 0
        #: Event other threads wait on while the read I/O is in flight
        #: (a runtime-backend :class:`~repro.runtime.base.WaitEvent`).
        self.io_done: Optional[WaitEvent] = None
        #: Bumped every time the frame is re-tagged; lets tests detect
        #: ABA recycling that tag comparison alone could miss.
        self.generation = 0
        #: PostgreSQL buffer-header-lock analogue. None under the
        #: simulator (pin/unpin are already atomic between yields);
        #: the native runner attaches a ``threading.Lock`` so the
        #: pin-count read-modify-write is atomic across OS threads.
        self.hdr_lock = None

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    def pin(self) -> None:
        lock = self.hdr_lock
        if lock is None:
            self.pin_count += 1
        else:
            with lock:
                self.pin_count += 1

    def unpin(self) -> None:
        if self.pin_count <= 0:
            raise BufferError_(
                f"frame {self.frame_id}: unpin without matching pin")
        lock = self.hdr_lock
        if lock is None:
            self.pin_count -= 1
        else:
            with lock:
                self.pin_count -= 1

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
