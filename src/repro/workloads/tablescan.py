"""TableScan: concurrent full sequential scans.

The paper's synthetic benchmark "simulates sequential scan, one of [the]
most commonly used database operations. It makes 20 concurrent queries,
each of which scans an entire table. Each table consists of 100,000
rows, and each row is 256 bytes long" (§IV-C) — i.e. roughly 3,200
8 KB pages per table.

Every page access is a hit once the buffer is warmed, and *every* hit
wants the replacement lock under list-based algorithms, so TableScan is
the paper's worst-case contention generator (its pg2Q throughput even
drops when going from 8 to 16 processors).

Each simulated query (thread) repeatedly scans its assigned table;
tables are assigned round-robin so any thread count works.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.db.relations import Relation, Schema
from repro.db.transactions import Transaction
from repro.errors import WorkloadError
from repro.workloads.base import Workload

__all__ = ["TableScanWorkload"]


class TableScanWorkload(Workload):
    """``n_tables`` tables of ``pages_per_table`` pages, scanned forever."""

    name = "tablescan"

    def __init__(self, seed: int = 0, n_tables: int = 20,
                 pages_per_table: int = 3200) -> None:
        super().__init__(seed)
        if n_tables < 1:
            raise WorkloadError(f"need >= 1 table, got {n_tables}")
        if pages_per_table < 1:
            raise WorkloadError(
                f"need >= 1 page per table, got {pages_per_table}")
        self.n_tables = n_tables
        self.pages_per_table = pages_per_table
        self._tables: List[Relation] = [
            Relation(f"scan_table_{i}", pages_per_table)
            for i in range(n_tables)
        ]
        self._schema = Schema(self._tables)

    @property
    def schema(self) -> Schema:
        return self._schema

    #: Per-page CPU work relative to OLTP: a scan just steps tuples.
    SCAN_WORK_FACTOR = 0.4

    def transaction_stream(self, thread_index: int
                           ) -> Iterator[Transaction]:
        table = self._tables[thread_index % self.n_tables]
        scan_pages = list(table.pages)
        while True:
            yield Transaction("full_scan", scan_pages,
                              work_factor=self.SCAN_WORK_FACTOR)
