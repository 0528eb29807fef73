"""DBT-2: a TPC-C-like OLTP workload.

OSDL's DBT-2 "derives from the TPC-C specification version 5.0 and
provides an on-line transaction processing (OLTP) workload"; the paper
runs it with 50 warehouses (§IV-C). We reproduce the page-level shape
of the five-transaction mix at a configurable warehouse count:

* each thread has a home warehouse whose warehouse/district pages are
  extremely hot;
* customers and stock are selected with NURand-style skew (modelled as
  Zipf within the warehouse);
* the item table is shared and Zipf-hot;
* orders / order-lines / history are append-mostly rings whose tail
  pages are hot and advance as the thread inserts.

Mix weights follow TPC-C: new-order 45 %, payment 43 %, order-status
4 %, delivery 4 %, stock-level 4 %.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator

from repro.db.relations import Relation, Schema
from repro.db.transactions import Transaction
from repro.errors import WorkloadError
from repro.simcore.rng import stream_rng
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["DBT2Workload"]


class DBT2Workload(Workload):
    """TPC-C-like mix over ``n_warehouses`` warehouses."""

    name = "dbt2"

    #: Pages per warehouse for each per-warehouse relation.
    CUSTOMER_PAGES = 30
    STOCK_PAGES = 60
    ORDERS_PAGES = 100
    ORDER_LINE_PAGES = 200
    NEW_ORDER_PAGES = 20
    HISTORY_PAGES = 50

    def __init__(self, seed: int = 0, n_warehouses: int = 50,
                 item_pages: int = 200, item_theta: float = 0.8,
                 customer_theta: float = 0.7,
                 remote_warehouse_prob: float = 0.01) -> None:
        super().__init__(seed)
        if n_warehouses < 1:
            raise WorkloadError(
                f"need >= 1 warehouse, got {n_warehouses}")
        self.n_warehouses = n_warehouses
        self.remote_warehouse_prob = remote_warehouse_prob
        w = n_warehouses
        self._warehouse = Relation("warehouse", w)
        self._district = Relation("district", w)          # 10 rows/page
        self._customer = Relation("customer", w * self.CUSTOMER_PAGES)
        self._stock = Relation("stock", w * self.STOCK_PAGES)
        self._orders = Relation("orders", w * self.ORDERS_PAGES)
        self._order_line = Relation("order_line", w * self.ORDER_LINE_PAGES)
        self._new_order = Relation("new_order", w * self.NEW_ORDER_PAGES)
        self._history = Relation("history", w * self.HISTORY_PAGES)
        self._item = Relation("item", item_pages)
        self._customer_idx = Relation("customer_idx",
                                      max(14, w * 2))
        self._schema = Schema([
            self._warehouse, self._district, self._customer, self._stock,
            self._orders, self._order_line, self._new_order, self._history,
            self._item, self._customer_idx,
        ])
        item_zipf = ZipfGenerator(item_pages, item_theta, permute=True,
                                  permute_seed=seed ^ 0x17EA)
        customer_zipf = ZipfGenerator(self.CUSTOMER_PAGES, customer_theta)
        stock_zipf = ZipfGenerator(self.STOCK_PAGES, 0.9)
        self._cdfs = (item_zipf.cdf, customer_zipf.cdf, stock_zipf.cdf)
        # Draw tables, built once per workload and shared by every
        # thread's stream: the item table, and one customer and one
        # stock table per warehouse (Zipf within the warehouse).
        self._item_table = item_zipf.table(self._item.pages)
        self._customer_tables = [
            customer_zipf.table(self._customer.pages[
                wh * self.CUSTOMER_PAGES:(wh + 1) * self.CUSTOMER_PAGES])
            for wh in range(w)]
        self._stock_tables = [
            stock_zipf.table(self._stock.pages[
                wh * self.STOCK_PAGES:(wh + 1) * self.STOCK_PAGES])
            for wh in range(w)]
        self._kinds = ["new_order", "payment", "order_status",
                       "delivery", "stock_level"]
        self._cum_weights = list(accumulate([0.45, 0.43, 0.04, 0.04, 0.04]))
        # The write indices of each transaction shape: new_order per line
        # count (district, each line's stock, then the order, new-order
        # and order-line inserts), payment's two customer paths, and
        # delivery (per district: new_order, orders, customer).
        self._new_order_writes = {
            n: frozenset([1, *range(5, 4 + 2 * n, 2),
                          *range(4 + 2 * n, 6 + 2 * n + (n + 4) // 5)])
            for n in range(5, 16)}
        self._payment_writes = (frozenset([0, 1, 3, 4]),
                                frozenset([0, 1, 5, 6]))
        self._delivery_writes = frozenset(
            index for d in range(10) for index in (1 + 4 * d, 2 + 4 * d,
                                                   4 + 4 * d))

    # -- plumbing ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def transaction_stream(self, thread_index: int
                           ) -> Iterator[Transaction]:
        # One loop, one uniform per Zipf draw and one list index per
        # page: the draws are interleaved with ``randint``/``randrange``
        # on one Mersenne Twister stream, so they cannot be taken in
        # blocks without reordering the stream.
        rng = stream_rng(self.seed, self.name, "thread", thread_index)
        random, choices = rng.random, rng.choices
        randint, randrange = rng.randint, rng.randrange
        bisect = bisect_right
        kinds, cum_weights = self._kinds, self._cum_weights
        n_warehouses = self.n_warehouses
        remote = n_warehouses > 1
        remote_prob = self.remote_warehouse_prob
        home = thread_index % n_warehouses
        warehouse = self._warehouse.pages[home]
        district = self._district.pages[home]
        customer_idx = self._customer_idx.pages
        home_idx = customer_idx[home % len(customer_idx)]
        item_cdf, customer_cdf, stock_cdf = self._cdfs
        items = self._item_table
        customer_tables = self._customer_tables
        stock_tables = self._stock_tables
        home_customers = customer_tables[home]
        home_stock = stock_tables[home]
        # The append rings: block ``home * pages + position % pages``.
        orders, orders_n = self._orders.pages, self.ORDERS_PAGES
        new_order, new_order_n = self._new_order.pages, self.NEW_ORDER_PAGES
        lines, lines_n = self._order_line.pages, self.ORDER_LINE_PAGES
        history, history_n = self._history.pages, self.HISTORY_PAGES
        orders_base = home * orders_n
        new_order_base = home * new_order_n
        lines_base = home * lines_n
        history_base = home * history_n
        stock, stock_n = self._stock.pages, self.STOCK_PAGES
        stock_base = home * stock_n
        new_order_writes = self._new_order_writes
        payment_writes = self._payment_writes
        delivery_writes = self._delivery_writes
        # Per-thread insert cursor into the append rings, offset so
        # threads start writing at different positions.
        cursor = thread_index * 1009
        while True:
            kind = choices(kinds, cum_weights=cum_weights)[0]
            if kind == "new_order":
                pages = [warehouse, district, home_idx,
                         home_customers[bisect(customer_cdf, random())]]
                n_lines = randint(5, 15)
                for _ in range(n_lines):
                    supply = home_stock
                    if remote and random() < remote_prob:
                        other = randrange(n_warehouses - 1)
                        supply = stock_tables[other + 1 if other >= home
                                              else other]
                    pages += (items[bisect(item_cdf, random())],
                              supply[bisect(stock_cdf, random())])
                # Inserts: orders tail, new_order tail, a few order_line
                # pages.
                pages += (orders[orders_base + cursor // 10 % orders_n],
                          new_order[new_order_base
                                    + cursor // 10 % new_order_n])
                pages += [lines[lines_base + (cursor // 3 + i) % lines_n]
                          for i in range((n_lines + 4) // 5)]
                yield Transaction(kind, pages,
                                  write_indices=new_order_writes[n_lines])
                cursor += 1
            elif kind == "payment":
                wh = home
                if remote and random() < remote_prob:
                    other = randrange(n_warehouses - 1)
                    wh = other + 1 if other >= home else other
                customers = customer_tables[wh]
                pages = [warehouse, district,
                         customer_idx[wh % len(customer_idx)]]
                if random() < 0.60:
                    pages.append(customers[bisect(customer_cdf, random())])
                    writes = payment_writes[0]
                else:
                    # Lookup by last name: extra index + a couple of
                    # candidates.
                    pages += (
                        customer_idx[(wh * 2 + 1) % len(customer_idx)],
                        customers[bisect(customer_cdf, random())],
                        customers[bisect(customer_cdf, random())])
                    writes = payment_writes[1]
                pages.append(history[history_base
                                     + cursor // 12 % history_n])
                yield Transaction(kind, pages, write_indices=writes)
                cursor += 1
            elif kind == "order_status":
                recent, line = cursor // 10, cursor // 3
                pages = [home_idx,
                         home_customers[bisect(customer_cdf, random())]]
                pages += [orders[orders_base + (recent - i) % orders_n]
                          for i in range(3)]
                pages += [lines[lines_base + (line - i) % lines_n]
                          for i in range(4)]
                yield Transaction(kind, pages)
            elif kind == "delivery":
                pages = [warehouse]
                oldest = max(0, cursor // 10 - new_order_n)
                for position in range(oldest, oldest + 10):
                    pages += (  # delete row, carrier id, lines, c_balance
                        new_order[new_order_base + position % new_order_n],
                        orders[orders_base + position % orders_n],
                        lines[lines_base + position * 2 % lines_n],
                        home_customers[bisect(customer_cdf, random())])
                yield Transaction(kind, pages, write_indices=delivery_writes)
                cursor += 1
            else:
                # Stock-level joins the last 20 orders' lines against the
                # stock table — effectively a scan. The one-touch stock
                # sweep is classic scan pollution: it flushes
                # reference-bit and LRU caches but is absorbed by 2Q's
                # A1in / LIRS's HIR queue.
                line = cursor // 3
                scan_start = cursor * 7 % stock_n
                pages = [district]
                pages += [lines[lines_base + (line - i) % lines_n]
                          for i in range(20)]
                pages += [stock[stock_base + (scan_start + i) % stock_n]
                          for i in range(40)]
                yield Transaction(kind, pages)
                cursor += 1
