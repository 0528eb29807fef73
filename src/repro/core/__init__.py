"""BP-Wrapper — the paper's contribution.

This package implements the framework of §III exactly as the
pseudo-code of Figure 4 describes it, independent of any particular
replacement algorithm:

* :mod:`repro.core.fifoqueue` — the small per-thread FIFO queue that
  records page hits;
* :mod:`repro.core.bpwrapper` — the hit- and miss-path handlers:
  ``DirectHandler`` (the contended baseline), ``BatchedHandler``
  (batching ± prefetching — BP-Wrapper proper) and
  ``LockFreeHitHandler`` (the clock family's native discipline).
"""

from repro.core.fifoqueue import AccessQueue, QueueEntry
from repro.core.bpwrapper import (
    BatchedHandler,
    DirectHandler,
    LockFreeHitHandler,
    ReplacementHandler,
    ThreadSlot,
)

__all__ = [
    "AccessQueue",
    "QueueEntry",
    "ReplacementHandler",
    "DirectHandler",
    "BatchedHandler",
    "LockFreeHitHandler",
    "ThreadSlot",
]
