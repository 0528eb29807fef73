"""Buffer lookup table.

Models the structure §II describes: page metadata spread over many hash
buckets, each under its own lock, so that "the possibility for multiple
threads to compete for the same bucket is low" and lookups scale. The
paper explicitly excludes bucket-lock contention from its analysis;
accordingly the table is one dict and the DES charges a flat lookup
cost. The bucket stripe exists only for the ablation benchmarks
(``simulate_locks=True``): then every tag maps to one of ``n_buckets``
locks, which the manager takes around its probe.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.tags import BufferTag
from repro.errors import BufferError_
from repro.runtime.base import MutexLock, Runtime
from repro.util import stable_hash

__all__ = ["BufferHashTable"]


class BufferHashTable:
    """Tag -> descriptor map, striped over ``n_buckets`` bucket locks."""

    def __init__(self, sim: "Runtime", n_buckets: int = 1024,
                 simulate_locks: bool = False) -> None:
        if n_buckets < 1:
            raise BufferError_(f"need >= 1 bucket, got {n_buckets}")
        self.n_buckets = n_buckets
        self._map: Dict[BufferTag, BufferDesc] = {}
        #: ``lookup(tag)`` -> the tag's descriptor or None: the dict's
        #: own ``get``, so a probe is one C call.
        self.lookup = self._map.get
        self.simulate_locks = simulate_locks
        self.bucket_locks: Optional[List[MutexLock]] = None
        if simulate_locks:
            self.bucket_locks = [
                sim.create_lock(name=f"hashbucket-{i}")
                for i in range(n_buckets)
            ]

    def bucket_index(self, tag: BufferTag) -> int:
        # Process-independent hash: bucket placement must not depend on
        # PYTHONHASHSEED or reproducibility across runs is lost.
        return stable_hash(tag) % self.n_buckets

    def insert(self, tag: BufferTag, desc: BufferDesc) -> None:
        if tag in self._map:
            raise BufferError_(f"duplicate hash-table entry for {tag}")
        self._map[tag] = desc

    def remove(self, tag: BufferTag) -> BufferDesc:
        desc = self._map.pop(tag, None)
        if desc is None:
            raise BufferError_(f"no hash-table entry for {tag}")
        return desc

    def __contains__(self, tag: BufferTag) -> bool:
        return tag in self._map

    def __len__(self) -> int:
        return len(self._map)

    def load_factor(self) -> float:
        """Mean entries per bucket (diagnostics)."""
        return len(self) / self.n_buckets
