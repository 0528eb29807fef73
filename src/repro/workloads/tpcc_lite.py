"""tpcc_lite: a TPC-C-ish macro workload built from query plans.

Where :class:`~repro.workloads.dbt2.DBT2Workload` emits hand-shaped
page traces, this workload emits *operator trees* from
:mod:`repro.db.exec` — the access stream is whatever the executor's
scans, B-tree walks, joins, inserts and updates actually touch, pins
included. Three transaction profiles over a warehouse schema:

* **new-order** (45%): read the customer by index, then a nested-loop
  join that keeps the home district page pinned *for update* across
  the whole item -> stock lookup chain (the district row lock), with
  the stock heap rows fetched for update; finally insert the order
  and its lines at the append-ring tails.
* **payment** (45%): dirty the warehouse and district pages, probe the
  customer index (60% primary-key for update, else a last-name scan of
  two candidates before the update), insert a history row.
* **order-status** (10%): customer index probe, then a hash join of
  the recent orders ring segment against the recent order-line
  segment.

The same plan stream backs both run modes: ``plan_stream`` yields
:class:`Query` objects for the live macro tier (harness/macro.py), and
``transaction_stream`` flattens identical plans through a
:class:`~repro.db.exec.context.TraceExecContext` into classic
:class:`~repro.db.transactions.Transaction` objects, so ``cli run``
and the hit-ratio tooling see exactly the access stream the executor
would produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, List, Tuple

from repro.db.exec.btree import BTreeIndex
from repro.db.exec.context import TraceExecContext
from repro.db.exec.executor import drain_plan
from repro.db.exec.operators import (HashJoin, HeapScan, IndexLookup,
                                     Insert, NestedLoopJoin, Operator,
                                     Update)
from repro.db.relations import Relation, Schema
from repro.db.transactions import Transaction
from repro.errors import WorkloadError
from repro.simcore.rng import stream_rng
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["Query", "TpccLiteWorkload"]

#: Tuples per heap/ring page everywhere in this workload.
ROWS_PER_PAGE = 16


@dataclass
class Query:
    """One transaction's plan: statements executed in order."""

    kind: str
    statements: List[Operator] = field(default_factory=list)
    think_time_us: float = 0.0


class TpccLiteWorkload(Workload):
    """TPC-C-ish new-order/payment/order-status mix as operator plans."""

    name = "tpcc_lite"

    #: Pages per warehouse for the per-warehouse relations.
    CUSTOMER_PAGES = 24
    STOCK_PAGES = 48
    ORDERS_PAGES = 32
    ORDER_LINE_PAGES = 64
    HISTORY_PAGES = 16

    def __init__(self, seed: int = 0, n_warehouses: int = 4,
                 item_pages: int = 64, item_theta: float = 0.8,
                 customer_theta: float = 0.7) -> None:
        super().__init__(seed)
        if n_warehouses < 1:
            raise WorkloadError(
                f"need >= 1 warehouse, got {n_warehouses}")
        self.n_warehouses = n_warehouses
        w = n_warehouses
        self._warehouse = Relation("warehouse", w)
        self._district = Relation("district", w)
        self._customer = Relation("customer", w * self.CUSTOMER_PAGES)
        self._stock = Relation("stock", w * self.STOCK_PAGES)
        self._item = Relation("item", item_pages)
        self._orders = Relation("orders", w * self.ORDERS_PAGES)
        self._order_line = Relation("order_line",
                                    w * self.ORDER_LINE_PAGES)
        self._history = Relation("history", w * self.HISTORY_PAGES)
        self._customer_idx = BTreeIndex(
            "customer_idx", n_keys=self._customer.n_pages * ROWS_PER_PAGE)
        self._stock_idx = BTreeIndex(
            "stock_idx", n_keys=self._stock.n_pages * ROWS_PER_PAGE)
        self._item_idx = BTreeIndex(
            "item_idx", n_keys=self._item.n_pages * ROWS_PER_PAGE)
        self._schema = Schema([
            self._warehouse, self._district, self._customer, self._stock,
            self._item, self._orders, self._order_line, self._history,
            self._customer_idx.relation, self._stock_idx.relation,
            self._item_idx.relation,
        ])
        self._item_zipf = ZipfGenerator(
            self._item_idx.n_keys, item_theta, permute=True,
            permute_seed=seed ^ 0x7CC)
        self._customer_zipf = ZipfGenerator(
            self.CUSTOMER_PAGES * ROWS_PER_PAGE, customer_theta)
        self._stock_zipf = ZipfGenerator(
            self.STOCK_PAGES * ROWS_PER_PAGE, 0.9)
        self._kinds = ["new_order", "payment", "order_status"]
        self._cum_weights = list(accumulate([0.45, 0.45, 0.10]))

    # -- workload contract ---------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def plan_stream(self, thread_index: int) -> Iterator[Query]:
        """Endless deterministic query-plan stream for one thread.

        Derived from ``(seed, thread index)`` exactly like every other
        workload's transaction stream, so the access sequence is
        independent of thread count, policy, and wrapper settings.
        """
        rng = stream_rng(self.seed, self.name, "thread", thread_index)
        home = thread_index % self.n_warehouses
        cursor = thread_index * 1009
        kinds, cum_weights = self._kinds, self._cum_weights
        builders = {
            "new_order": self._plan_new_order,
            "payment": self._plan_payment,
            "order_status": self._plan_order_status,
        }
        while True:
            kind = rng.choices(kinds, cum_weights=cum_weights)[0]
            query, cursor = builders[kind](rng, home, cursor)
            yield query

    def transaction_stream(self, thread_index: int
                           ) -> Iterator[Transaction]:
        """The same plans, flattened to page traces through the
        executor (no buffer manager involved)."""
        for query in self.plan_stream(thread_index):
            ctx = TraceExecContext()
            for root in query.statements:
                drain_plan(root, ctx)
            yield Transaction(query.kind, ctx.pages,
                              think_time_us=query.think_time_us,
                              write_indices=frozenset(ctx.write_indices))

    # -- key helpers ---------------------------------------------------------

    def _customer_key(self, rng: random.Random, warehouse: int) -> int:
        local = self._customer_zipf.sample(rng)
        return warehouse * self.CUSTOMER_PAGES * ROWS_PER_PAGE + local

    def _stock_key(self, rng: random.Random, warehouse: int) -> int:
        local = self._stock_zipf.sample(rng)
        return warehouse * self.STOCK_PAGES * ROWS_PER_PAGE + local

    # -- plan builders -------------------------------------------------------

    def _plan_new_order(self, rng: random.Random, home: int,
                        cursor: int) -> Tuple[Query, int]:
        n_lines = rng.randint(5, 15)
        item_keys = [self._item_zipf.sample(rng) for _ in range(n_lines)]
        stock_keys = [self._stock_key(rng, home) for _ in range(n_lines)]
        # The district scan emits one row per order line while holding
        # the district page pinned for update — the d_next_o_id row
        # lock — so the whole item -> stock chain below runs under a
        # long-lived pin (this is where pinned-victim skips come from).
        district = HeapScan(self._district, rows_per_page=n_lines,
                            start_block=home, n_blocks=1, for_update=True,
                            name="no_district")
        base = home * n_lines
        items = NestedLoopJoin(
            district,
            IndexLookup(self._item_idx, self._item, name="no_item"),
            key_of=lambda row: item_keys[(row - base) % n_lines],
            name="no_item_join")
        lines = NestedLoopJoin(
            items,
            IndexLookup(self._stock_idx, self._stock, for_update=True,
                        name="no_stock"),
            key_of=lambda row: stock_keys[(row - base) % n_lines],
            name="no_stock_join")
        customer = IndexLookup(
            self._customer_idx, self._customer,
            keys=[self._customer_key(rng, home)], name="no_customer")
        order_row = (home * self.ORDERS_PAGES * ROWS_PER_PAGE
                     + cursor % (self.ORDERS_PAGES * ROWS_PER_PAGE))
        line_row = (home * self.ORDER_LINE_PAGES * ROWS_PER_PAGE
                    + (cursor * 3) % (self.ORDER_LINE_PAGES
                                      * ROWS_PER_PAGE))
        inserts = [
            Insert(self._orders, order_row, 1, name="no_insert_order"),
            Insert(self._order_line, line_row, n_lines,
                   name="no_insert_lines"),
        ]
        query = Query("new_order", [customer, lines] + inserts)
        return query, cursor + 1

    def _plan_payment(self, rng: random.Random, home: int,
                      cursor: int) -> Tuple[Query, int]:
        wh = HeapScan(self._warehouse, rows_per_page=1, start_block=home,
                      n_blocks=1, for_update=True, name="pay_warehouse")
        district = HeapScan(self._district, rows_per_page=1,
                            start_block=home, n_blocks=1, for_update=True,
                            name="pay_district")
        ckey = self._customer_key(rng, home)
        if rng.random() < 0.60:
            customer: Operator = IndexLookup(
                self._customer_idx, self._customer, keys=[ckey],
                for_update=True, name="pay_customer")
        else:
            # Last-name path: read two candidate rows through the
            # index, then re-fetch the chosen row's page for update.
            candidates = IndexLookup(
                self._customer_idx, self._customer,
                keys=[ckey, self._customer_key(rng, home)],
                name="pay_customer_scan")
            customer = Update(
                candidates,
                page_of=lambda row: self._customer.page(
                    (row // ROWS_PER_PAGE) % self._customer.n_pages),
                name="pay_customer_update")
        hist_row = (home * self.HISTORY_PAGES * ROWS_PER_PAGE
                    + cursor % (self.HISTORY_PAGES * ROWS_PER_PAGE))
        history = Insert(self._history, hist_row, 1,
                         name="pay_insert_history")
        query = Query("payment", [wh, district, customer, history])
        return query, cursor + 1

    def _plan_order_status(self, rng: random.Random, home: int,
                           cursor: int) -> Tuple[Query, int]:
        customer = IndexLookup(
            self._customer_idx, self._customer,
            keys=[self._customer_key(rng, home)], name="os_customer")
        # Recent-orders segment hash-joined against the recent
        # order-line segment: build side drains during open, probe
        # side streams with its current page pinned.
        orders_tail = (home * self.ORDERS_PAGES
                       + (cursor // ROWS_PER_PAGE) % self.ORDERS_PAGES)
        lines_tail = (home * self.ORDER_LINE_PAGES
                      + ((cursor * 3) // ROWS_PER_PAGE)
                      % self.ORDER_LINE_PAGES)
        join = HashJoin(
            HeapScan(self._orders, rows_per_page=ROWS_PER_PAGE,
                     start_block=orders_tail, n_blocks=2,
                     name="os_orders_scan"),
            HeapScan(self._order_line, rows_per_page=ROWS_PER_PAGE,
                     start_block=lines_tail, n_blocks=4,
                     name="os_lines_scan"),
            key_of_build=lambda row: row % 64,
            key_of_probe=lambda row: row % 64,
            name="os_join")
        return Query("order_status", [customer, join]), cursor
