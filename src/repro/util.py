"""Small runtime-agnostic helpers shared across layers.

This module sits below everything — it may not import from any other
``repro`` package. In particular :func:`stable_hash` used to live in
:mod:`repro.simcore.rng`, which forced hash-routing policies
(:mod:`repro.policies.partitioned`, :mod:`repro.policies.tinylfu`) and
the buffer hash table to depend on the simulator package. Re-homing it
here keeps ``repro.policies``, ``repro.core`` and ``repro.bufmgr``
import-clean of ``repro.simcore`` (guarded by ``tests/test_layering.py``)
so the same code can run under either runtime backend.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import fields
from typing import Sequence

__all__ = ["CounterArithmetic", "nearest_rank", "stable_hash"]


@functools.lru_cache(maxsize=65536)
def stable_hash(value: object, salt: int = 0) -> int:
    """A process-independent hash for routing decisions.

    Python's builtin ``hash`` is randomized per process for strings, so
    anything derived from it (hash-partition routing, bucket placement)
    would differ between invocations and break the bit-for-bit
    reproducibility the simulator promises. This hashes ``repr(value)``
    (stable for the tuples/strings/ints used as page keys) through
    zlib.crc32, which is plenty for load spreading. Cached: the hot
    path hashes the same few thousand page ids over and over.
    """
    data = repr(value).encode("utf-8")
    if salt:
        data += salt.to_bytes(8, "little", signed=False)
    return zlib.crc32(data)


def nearest_rank(ordered: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` (0-100] of an ascending sequence;
    0.0 when it is empty. The one percentile rule transaction logs,
    tenant latency summaries and the mp parent all report by."""
    if not ordered:
        return 0.0
    rank = max(0, int(len(ordered) * percentile / 100.0 + 0.5) - 1)
    return ordered[min(rank, len(ordered) - 1)]


class CounterArithmetic:
    """Snapshot, window and pool arithmetic for a dataclass of additive
    counters, derived from its field list so a counter is named once,
    where it is declared.

    The harness excludes the warm-up by ``delta_since`` a snapshot and
    sums pools (shards, worker processes) with ``merged_with``. The
    operands are read with ``getattr``, never ``vars()``: touching a
    live counter object's ``__dict__`` would un-specialize the
    per-access ``stats.x += 1`` that runs on it for the rest of the run.
    """

    def copy(self):
        """An independent snapshot of the current counters."""
        return type(self)(**{f.name: getattr(self, f.name)
                             for f in fields(self)})

    def delta_since(self, earlier):
        """Counters accumulated since the ``earlier`` snapshot."""
        return type(self)(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)})

    def merged_with(self, other):
        """A new instance summing self and ``other``."""
        return type(self)(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})
