"""DBT-1: a TPC-W-like web-bookstore browsing workload.

OSDL's DBT-1 models "the activities of web users who browse and order
items from an on-line bookstore" (§IV-C; TPC-W 1.7 characteristics,
10,000 items, 2.88 million customers). We reproduce the access-pattern
*shape* at a configurable scale:

* item popularity is Zipf-skewed (the classic web-catalogue shape), so
  a hot set of item pages absorbs most accesses;
* every interaction walks B-tree index paths whose root/internal pages
  are extremely hot — these are the pages whose hits hammer the
  replacement lock;
* the customer table is much larger than its hot set, giving
  LRU-family algorithms reuse-distance structure that clock's single
  reference bit cannot capture (Fig. 8's hit-ratio gap).

Transactions follow the TPC-W browsing mix (home / product detail /
search / best sellers / new products / shopping cart / order inquiry).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, List

from repro.bufmgr.tags import PageId
from repro.db.relations import Relation, Schema
from repro.db.transactions import Transaction
from repro.errors import WorkloadError
from repro.simcore.rng import stream_rng
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["DBT1Workload"]


class _BTree:
    """Access-path helper for a modelled B-tree index relation.

    Page layout inside the relation: block 0 is the root, blocks
    ``1..fanout`` are internal pages, the rest are leaves.
    """

    def __init__(self, relation: Relation, fanout: int) -> None:
        if relation.n_pages < fanout + 2:
            raise WorkloadError(
                f"index {relation.name!r} too small for fanout {fanout}")
        self.relation = relation
        self.fanout = fanout
        self.n_leaves = relation.n_pages - fanout - 1

    def probe(self, key_fraction: float) -> List[PageId]:
        """Root-to-leaf path for a key at ``key_fraction`` of the range."""
        key_fraction = min(max(key_fraction, 0.0), 1.0 - 1e-9)
        internal = 1 + int(key_fraction * self.fanout)
        leaf = self.fanout + 1 + int(key_fraction * self.n_leaves)
        pages = self.relation.pages  # key_fraction < 1: both in range
        return [pages[0], pages[internal], pages[leaf]]

    def leaf_range(self, key_fraction: float, n_leaves: int) -> List[PageId]:
        """An index range scan: one probe then consecutive leaves."""
        pages = self.probe(key_fraction)
        first_leaf = pages[-1].block
        pages += self.relation.pages[first_leaf + 1:first_leaf + n_leaves]
        return pages


class DBT1Workload(Workload):
    """TPC-W-like browsing mix over a scaled bookstore schema."""

    name = "dbt1"

    def __init__(self, seed: int = 0, scale: float = 1.0,
                 item_theta: float = 1.0,
                 customer_theta: float = 0.85) -> None:
        super().__init__(seed)
        if scale <= 0:
            raise WorkloadError(f"scale must be positive, got {scale}")
        self.scale = scale

        def pages(base: int, minimum: int = 8) -> int:
            return max(minimum, int(base * scale))

        self._item = Relation("item", pages(2000))
        self._author = Relation("author", pages(250))
        self._customer = Relation("customer", pages(8000))
        self._orders = Relation("orders", pages(1500))
        self._order_line = Relation("order_line", pages(3000))
        self._item_idx = Relation("item_idx", pages(220, minimum=14))
        self._customer_idx = Relation("customer_idx", pages(430, minimum=14))
        self._schema = Schema([
            self._item, self._author, self._customer, self._orders,
            self._order_line, self._item_idx, self._customer_idx,
        ])
        self._item_btree = _BTree(self._item_idx, fanout=10)
        self._customer_btree = _BTree(self._customer_idx, fanout=10)
        item_zipf = ZipfGenerator(
            self._item.n_pages, item_theta, permute=True,
            permute_seed=seed ^ 0x5EED)
        customer_zipf = ZipfGenerator(
            self._customer.n_pages, customer_theta, permute=True,
            permute_seed=seed ^ 0xCAFE)
        self._cdfs = (item_zipf.cdf, customer_zipf.cdf)
        # Draw tables, built once per workload and shared by every
        # thread's stream.
        self._item_table = item_zipf.table(self._item.pages)
        self._customer_table = customer_zipf.table(self._customer.pages)
        # The TPC-W browsing mix, approximated.
        self._kinds = ["home", "product_detail", "search", "best_sellers",
                       "new_products", "shopping_cart", "order_inquiry",
                       "buy_request"]
        self._cum_weights = list(accumulate(
            [0.16, 0.17, 0.20, 0.05, 0.05, 0.14, 0.12, 0.11]))

    # -- plumbing ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def transaction_stream(self, thread_index: int
                           ) -> Iterator[Transaction]:
        # One loop, one uniform per Zipf draw and one list index per
        # page, consuming the stream's draws in the order the
        # transactions name their pages.
        rng = stream_rng(self.seed, self.name, "thread", thread_index)
        random, choices = rng.random, rng.choices
        randint, randrange = rng.randint, rng.randrange
        bisect = bisect_right
        kinds, cum_weights = self._kinds, self._cum_weights
        item_cdf, customer_cdf = self._cdfs
        items, customers = self._item_table, self._customer_table
        item_probe = self._item_btree.probe
        item_range = self._item_btree.leaf_range
        customer_probe = self._customer_btree.probe
        authors = self._author.pages
        # Order pages age: recency-skewed over the last quarter.
        orders = self._orders.pages
        window = max(1, len(orders) // 4)
        recent = len(orders) - window
        lines = self._order_line.pages
        n_lines = len(lines)
        scan_len = max(12, n_lines // 30)
        # buy_request's order insert dirties the two order pages it
        # touches, after a customer probe, the customer and 4 items.
        buy_writes, no_writes = frozenset([8, 9]), frozenset()
        while True:
            kind = choices(kinds, cum_weights=cum_weights)[0]
            writes = no_writes
            if kind == "home":
                pages = customer_probe(random())
                pages.append(customers[bisect(customer_cdf, random())])
                pages += item_probe(random())
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(5)]
            elif kind == "product_detail":
                pages = item_probe(random())
                item = items[bisect(item_cdf, random())]
                pages += (item, authors[item.block % len(authors)])
                # Related items panel.
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(4)]
            elif kind == "search":
                pages = item_range(random(), randint(3, 8))
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(10)]
            elif kind == "best_sellers":
                # TPC-W's best-seller query aggregates over recent orders
                # and their line items — a genuine range scan. The
                # one-touch order_line sweep is the scan pollution that
                # separates 2Q/LIRS from clock at every buffer size
                # (Fig. 8).
                pages = item_probe(0.0)
                pages += [orders[recent + randrange(window)]
                          for _ in range(24)]
                start = randrange(n_lines)
                pages += [lines[(start + i) % n_lines]
                          for i in range(scan_len)]
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(12)]
            elif kind == "new_products":
                pages = item_range(random(), randint(6, 12))
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(8)]
            elif kind == "shopping_cart":
                pages = customer_probe(random())
                pages.append(customers[bisect(customer_cdf, random())])
                pages += item_probe(random())
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(3)]
            elif kind == "order_inquiry":
                pages = customer_probe(random())
                pages.append(customers[bisect(customer_cdf, random())])
                pages += [orders[recent + randrange(window)]
                          for _ in range(3)]
                start = randrange(n_lines)
                pages += [lines[(start + i) % n_lines] for i in range(3)]
            else:
                pages = customer_probe(random())
                pages.append(customers[bisect(customer_cdf, random())])
                pages += [items[bisect(item_cdf, random())]
                          for _ in range(4)]
                pages += [orders[recent + randrange(window)]
                          for _ in range(2)]
                writes = buy_writes
            yield Transaction(kind, pages, write_indices=writes)
