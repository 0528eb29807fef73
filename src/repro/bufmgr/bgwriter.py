"""Background writer — proactive flushing of dirty pages.

PostgreSQL's bgwriter exists so that backends rarely pay a synchronous
write-back when they evict: a daemon sweeps the pool, writing dirty
unpinned pages ahead of demand. The paper's evaluation runs with it
(stock PostgreSQL), so modelling it matters for the miss-bound Figure 8
regime on write-heavy DBT-2 — without it, every dirty eviction stalls
a backend for a full disk write.

:class:`BackgroundWriter` is a daemon on a runtime thread: every
``interval_us`` it sweeps up to ``batch_pages`` dirty, unpinned, valid
frames (round-robin over the pool, like bgwriter's clock-hand scan)
and writes them through the disk model. A page is pinned during its
write; if the frame was recycled mid-write (generation bump) the clean
bit is left alone.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bufmgr.manager import BufferManager
from repro.errors import ConfigError
from repro.runtime.base import ThreadContext, Waits

__all__ = ["BackgroundWriter"]


class BackgroundWriter:
    """A bgwriter daemon sweeping one buffer pool on ``thread``."""

    def __init__(self, manager: BufferManager, thread: ThreadContext,
                 interval_us: float = 20_000.0, batch_pages: int = 8,
                 shared_stop: Optional[Dict[str, bool]] = None) -> None:
        if manager.disk is None:
            raise ConfigError(
                "background writer needs a manager with a disk model")
        if interval_us <= 0:
            raise ConfigError(
                f"interval must be positive, got {interval_us}")
        if batch_pages < 1:
            raise ConfigError(
                f"batch_pages must be >= 1, got {batch_pages}")
        self.manager = manager
        #: The thread the daemon runs on (``runtime.create_thread``).
        self.thread = thread
        self.interval_us = interval_us
        self.batch_pages = batch_pages
        #: Shared flag dict ({"stop": bool}); the daemon exits when set.
        self.shared_stop = shared_stop if shared_stop is not None else {
            "stop": False}
        self._sweep_hand = 0
        # Accounting.
        self.pages_cleaned = 0
        self.sweeps = 0

    def stop(self) -> None:
        """Ask the daemon to exit at its next wakeup."""
        self.shared_stop["stop"] = True

    def start(self):
        """Spawn the daemon; returns what the thread's ``start`` does
        (the simcore Process, or the OS thread under native)."""
        return self.thread.start(self._run())

    # -- daemon body --------------------------------------------------------

    def _run(self) -> Waits:
        while not self.shared_stop.get("stop"):
            yield from self.thread.sleep_blocked(self.interval_us)
            if self.shared_stop.get("stop"):
                return
            yield from self._sweep()

    def _sweep(self) -> Waits:
        """Write out up to ``batch_pages`` dirty unpinned frames."""
        self.sweeps += 1
        frames = self.manager._frames
        if not frames:
            return
        written = 0
        examined = 0
        n_frames = len(frames)
        while written < self.batch_pages and examined < n_frames:
            desc = frames[self._sweep_hand]
            self._sweep_hand = (self._sweep_hand + 1) % n_frames
            examined += 1
            if not (desc.valid and desc.dirty and not desc.pinned):
                continue
            generation = desc.generation
            desc.pin()
            yield from self.manager.disk.write(self.thread)
            # Only mark clean if the frame still holds the same page
            # (it cannot have been evicted while pinned, but be safe).
            if desc.generation == generation:
                desc.dirty = False
                self.pages_cleaned += 1
                written += 1
            desc.unpin()
