"""Minimal query-execution layer over the buffer manager.

The macro tier the paper evaluates against (TPC-W/TPC-C on PostgreSQL)
drives its buffer pool through scans, index walks and joins — not
synthetic page traces. This package supplies that layer for the
reproduction: Volcano-style operators (:mod:`~repro.db.exec.operators`)
whose page fetches go through :meth:`BufferManager.request
<repro.bufmgr.manager.BufferManager.request>` with ``keep_pin`` and
hold pins across operator lifetimes, a B-tree-shaped index layout
(:mod:`~repro.db.exec.btree`), execution contexts for the sim/native
runtimes, the sharded serving layer and trace recording
(:mod:`~repro.db.exec.context`), and an abort-safe plan driver
(:mod:`~repro.db.exec.executor`). See docs/architecture.md §12.
"""

from repro.db.exec.btree import BTreeIndex
from repro.db.exec.context import (ExecContext, LiveExecContext,
                                   PinnedPage, ShardedExecContext,
                                   TraceExecContext)
from repro.db.exec.executor import drain_plan, run_plan, run_statements
from repro.db.exec.operators import (HashJoin, HeapScan, IndexLookup,
                                     Insert, NestedLoopJoin, Operator,
                                     Update)

__all__ = [
    "BTreeIndex",
    "ExecContext",
    "HashJoin",
    "HeapScan",
    "IndexLookup",
    "Insert",
    "LiveExecContext",
    "NestedLoopJoin",
    "Operator",
    "PinnedPage",
    "ShardedExecContext",
    "TraceExecContext",
    "Update",
    "drain_plan",
    "run_plan",
    "run_statements",
]
