"""The ledger's yardstick for host speed.

The reference host is a 2-CPU shared VM that runs the same code at
speeds drifting by tens of percent over minutes: one identical cell
took 0.19-0.27 s over three quiet minutes and 1.66 times as long an hour
later, CPU time moving with wall time (the processor itself runs slower,
nothing is descheduled). Ten back-to-back runs of the same commit then
spread 22-30 % (IQR / median) on ``fig6_hit`` — wider than any bound a
regression gate could use. Measuring longer does not help: the phases
outlast a run.

So every time the ledger takes is scaled to a reference speed. A small
frozen kernel — a miniature of what the simulator does all day:
generators on a heap-ordered event loop, touching slotted objects in a
dict keyed by tuples — runs between the timed cells, and a run's *speed
index* is ``NOMINAL_S`` over the median of its kernel times: 1.0 at the
reference host's usual speed, 0.7 in a slow phase. Reported seconds are
measured seconds times the index, reported rates are measured rates over
it; the index itself is reported as ``host.speed_index``, so the
measured value is always recoverable.

The kernel is the ledger's own code and shares none with ``src/``, so a
change to the system cannot move it. It is frozen: every recorded number
is in its units.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import Optional

__all__ = ["NOMINAL_S", "reference_kernel", "Yardstick"]

#: What one kernel run takes at the reference speed (the reference
#: host's median over a quiet stretch was 25.8 ms).
NOMINAL_S = 0.025


class _Frame:
    __slots__ = ("key", "uses", "dirty")

    def __init__(self, key) -> None:
        self.key = key
        self.uses = 0
        self.dirty = False


def reference_kernel(steps: int = 22_000, n_frames: int = 4096,
                     n_threads: int = 16) -> float:
    """Run the frozen kernel once; the seconds it took."""
    started = time.perf_counter()
    frames = {("t", block): _Frame(("t", block)) for block in range(n_frames)}

    def thread(index: int):
        rng = random.Random(index)
        queue = []
        while True:
            frame = frames.get(("t", rng.randrange(n_frames)))
            frame.uses += 1
            if index & 1:
                frame.dirty = True
            queue.append(frame)
            if len(queue) >= 32:
                queue.clear()
            yield 1.0 + (index & 3)

    events = [(0.0, index, thread(index)) for index in range(n_threads)]
    heapq.heapify(events)
    for sequence in range(n_threads, n_threads + steps):
        now, _, body = heapq.heappop(events)
        heapq.heappush(events, (now + next(body), sequence, body))
    return time.perf_counter() - started


class Yardstick:
    """Collects kernel runs over a process's life; their speed index.

    One kernel run is itself hit by the host's bursts (IQR / median 10 %
    on the reference host), so an index is the median of many: the
    bursts that hit single cells are left to the median over passes, and
    the index follows the slow phases only.
    """

    def __init__(self) -> None:
        self.samples_s: list = []

    def sample(self, runs: int = 2) -> None:
        self.samples_s.extend(reference_kernel() for _ in range(runs))

    def speed(self, last: Optional[int] = None) -> float:
        """Speed index over every sample so far, or the ``last`` few."""
        samples = self.samples_s if last is None else self.samples_s[-last:]
        return NOMINAL_S / statistics.median(samples)
