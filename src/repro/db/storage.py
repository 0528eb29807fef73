"""Disk-array model.

Stands in for the paper's RAID5 LUNs (9 SATA disks on the Altix, 5 SCSI
disks on the PowerEdge). The model is a k-server FIFO queue: up to
``concurrency`` reads are serviced simultaneously, each taking
``service_time_us`` (optionally jittered deterministically per
request), and further requests queue.

Only Figure 8 exercises this model hard — the scalability experiments
pre-warm a buffer big enough to hold the working set, exactly as the
paper does, so "there are no misses incurred no matter which
replacement algorithm is used" (§IV).

A request waiting for a slot parks
(:meth:`~repro.simcore.cpu.CpuBoundThread.park`); a finishing request
hands its slot straight to the head waiter and wakes it. A request
closed while queued leaves the queue, and one closed after it got a
slot — woken, or mid-service — hands the slot on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

from repro.errors import SimulationError
from repro.simcore.cpu import CpuBoundThread
from repro.simcore.engine import Simulator
from repro.simcore.rng import stream_rng

__all__ = ["DiskArray"]


class DiskArray:
    """A fixed-concurrency disk array with FIFO admission."""

    def __init__(self, sim: Simulator, service_time_us: float,
                 concurrency: int, jitter_fraction: float = 0.0,
                 seed: int = 0) -> None:
        if concurrency < 1:
            raise SimulationError(
                f"disk array needs concurrency >= 1, got {concurrency}")
        if service_time_us <= 0:
            raise SimulationError(
                f"disk service time must be positive, got {service_time_us}")
        if not 0.0 <= jitter_fraction < 1.0:
            raise SimulationError(
                f"jitter fraction must be in [0, 1), got {jitter_fraction}")
        self.sim = sim
        self.service_time_us = service_time_us
        self.concurrency = concurrency
        self.jitter_fraction = jitter_fraction
        self._rng = stream_rng(seed, "disk-array")
        self._busy = 0
        self._waiters: Deque[CpuBoundThread] = deque()
        # Accounting.
        self.reads = 0
        self.writes = 0
        self.total_service_us = 0.0
        self.total_queue_wait_us = 0.0

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a free disk slot."""
        return len(self._waiters)

    def _service_time(self) -> float:
        base = self.service_time_us
        if self.jitter_fraction == 0.0:
            return base
        spread = base * self.jitter_fraction
        return base + self._rng.uniform(-spread, spread)

    def write(self, thread: CpuBoundThread
              ) -> Generator[Any, None, None]:
        """Write one page back (same service model as a read)."""
        self.writes += 1
        return self._transfer(thread)

    def read(self, thread: CpuBoundThread) -> Generator[Any, None, None]:
        """Perform one page read on behalf of ``thread`` (blocks off-CPU)."""
        self.reads += 1
        return self._transfer(thread)

    def _transfer(self, thread: CpuBoundThread
                  ) -> Generator[Any, None, None]:
        if self._busy >= self.concurrency:
            queued_at = self.sim._now
            self._waiters.append(thread)
            try:
                yield from thread.park()
            except GeneratorExit:
                if thread in self._waiters:
                    self._waiters.remove(thread)
                else:
                    self._hand_on()  # woken: the slot was ours
                raise
            self.total_queue_wait_us += self.sim._now - queued_at
            # The releaser transferred its slot to us: _busy stays put.
        else:
            self._busy += 1
        service = self._service_time()
        self.total_service_us += service
        try:
            yield from thread.sleep_blocked(service)
        finally:
            self._hand_on()

    def _hand_on(self) -> None:
        """Pass a finished request's slot to the head waiter, or free it."""
        if self._waiters:
            self._waiters.popleft().wake()
        else:
            self._busy -= 1

    def mean_latency_us(self) -> float:
        """Average end-to-end read latency so far (queueing + service)."""
        if self.reads == 0:
            return 0.0
        return (self.total_service_us + self.total_queue_wait_us) / self.reads
