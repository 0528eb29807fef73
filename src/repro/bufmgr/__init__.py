"""Buffer-pool manager substrate.

A from-scratch model of the component Figure 1 of the paper draws: a
pool of fixed-size buffer pages whose metadata (:class:`BufferDesc`) is
found through a hash table (its bucket locks simulated on request),
with a replacement policy
deciding victims and a single exclusive lock serializing the policy's
bookkeeping — the lock BP-Wrapper exists to decontend.

The manager is written against the :mod:`repro.runtime.base`
protocols, so it runs under either backend: its entry point
:meth:`~repro.bufmgr.manager.BufferManager.request` serves a hit that
cannot wait as a plain call and hands back a generator continuation
for anything else, driven by a simulated thread — charging CPU costs
and blocking on the replacement lock and the disk model at exactly
the points a real DBMS backend would — or driven inline on a real OS
thread by the native runtime, whose primitives block at call time and
yield nothing.
"""

from repro.bufmgr.tags import PageId, BufferTag
from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.hashtable import BufferHashTable
from repro.bufmgr.bgwriter import BackgroundWriter
from repro.bufmgr.manager import AccessStats, BufferManager

__all__ = [
    "PageId",
    "BufferTag",
    "BufferDesc",
    "BufferHashTable",
    "BufferManager",
    "BackgroundWriter",
    "AccessStats",
]
