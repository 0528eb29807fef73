"""Tests for the workload generators."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.bufmgr.tags import PageId
from repro.errors import ConfigError, WorkloadError
from repro.workloads import (DBT1Workload, DBT2Workload, SyntheticTrace,
                             TableScanWorkload, TraceWorkload, ZipfGenerator,
                             available_workloads, make_workload)
from repro.workloads.base import merged_trace


class FixedUniform:
    """An rng whose every ``random()`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def take_transactions(workload, thread_index, count):
    stream = workload.transaction_stream(thread_index)
    return list(itertools.islice(stream, count))


class TestZipf:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfGenerator(0, 1.0)
        with pytest.raises(WorkloadError):
            ZipfGenerator(10, -1.0)

    def test_skew_orders_probability(self):
        zipf = ZipfGenerator(100, 1.0)
        assert (zipf.probability_of_rank(0)
                > zipf.probability_of_rank(10)
                > zipf.probability_of_rank(99))

    def test_theta_zero_is_uniform(self):
        zipf = ZipfGenerator(50, 0.0)
        assert zipf.probability_of_rank(0) == pytest.approx(
            zipf.probability_of_rank(49))

    def test_samples_within_range_and_skewed(self):
        zipf = ZipfGenerator(1000, 0.9)
        rng = random.Random(5)
        draws = [zipf.sample(rng) for _ in range(20000)]
        assert all(0 <= draw < 1000 for draw in draws)
        counts = Counter(draws)
        top_share = sum(count for value, count in counts.items()
                        if value < 100) / len(draws)
        assert top_share > 0.55  # top 10% of ranks get most accesses

    def test_permutation_scatters_hot_values(self):
        plain = ZipfGenerator(1000, 1.2)
        permuted = ZipfGenerator(1000, 1.2, permute=True, permute_seed=3)
        rng = random.Random(5)
        hot_plain = Counter(plain.sample(rng)
                            for _ in range(5000)).most_common(1)[0][0]
        rng = random.Random(5)
        hot_permuted = Counter(permuted.sample(rng)
                               for _ in range(5000)).most_common(1)[0][0]
        assert hot_plain == 0
        assert hot_permuted != 0

    def test_deterministic_given_rng(self):
        zipf = ZipfGenerator(100, 0.8)
        a = [zipf.sample(random.Random(1)) for _ in range(5)]
        b = [zipf.sample(random.Random(1)) for _ in range(5)]
        assert a == b

    @staticmethod
    def reference_cdf(n, theta):
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64),
                                 theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cdf

    def searchsorted_reference(self, n, theta, permute, uniforms):
        """The draws as one vectorised ``np.searchsorted`` computes them:
        the same uniform must give the same rank (run digests rely on
        it)."""
        ranks = np.minimum(np.searchsorted(self.reference_cdf(n, theta),
                                           uniforms, side="right"), n - 1)
        if permute:
            ranks = np.random.default_rng(11).permutation(n)[ranks]
        return ranks.tolist()

    @pytest.mark.parametrize("permute", [False, True])
    @pytest.mark.parametrize("theta", [0.0, 0.7, 0.9])
    def test_draws_match_searchsorted_reference(self, theta, permute):
        n = 500
        zipf = ZipfGenerator(n, theta, permute=permute, permute_seed=11)
        rng = random.Random(3)
        uniforms = [rng.random() for _ in range(100_000)]
        rng = random.Random(3)
        assert [zipf.sample(rng) for _ in uniforms] == \
            self.searchsorted_reference(n, theta, permute, uniforms)

    @pytest.mark.parametrize("permute", [False, True])
    def test_unit_interval_edges_match_reference(self, permute):
        n = 10
        zipf = ZipfGenerator(n, 0.9, permute=permute, permute_seed=11)
        # A u equal to a CDF entry belongs to the next rank (side
        # "right"); u == 1.0 is the last entry: clamped to the last rank.
        edges = [0.0, float(self.reference_cdf(n, 0.9)[3]),
                 math.nextafter(1.0, 0.0), 1.0]
        assert [zipf.sample(FixedUniform(u)) for u in edges] == \
            self.searchsorted_reference(n, 0.9, permute, edges)


    @pytest.mark.parametrize("permute", [False, True])
    def test_table_draw_is_the_sampled_value(self, permute):
        """``table[bisect_right(cdf, u)]`` names ``values[sample]`` for
        every uniform, the u == 1.0 sentinel included."""
        from bisect import bisect_right
        zipf = ZipfGenerator(10, 0.9, permute=permute, permute_seed=11)
        values = [f"page{rank}" for rank in range(10)]
        table = zipf.table(values)
        assert len(table) == 11
        rng = random.Random(4)
        uniforms = [rng.random() for _ in range(2_000)] + [0.0, 1.0]
        for u in uniforms:
            assert table[bisect_right(zipf.cdf, u)] == \
                values[zipf.sample(FixedUniform(u))]
        with pytest.raises(WorkloadError):
            zipf.table(values[:-1])


class TestRegistry:
    def test_names(self):
        assert set(available_workloads()) == {"dbt1", "dbt2", "tablescan",
                                              "tpcc_lite"}

    def test_make_unknown_raises(self):
        with pytest.raises(ConfigError):
            make_workload("nope")


@pytest.mark.parametrize("name,kwargs", [
    ("dbt1", {"scale": 0.2}),
    ("dbt2", {"n_warehouses": 5}),
    ("tablescan", {"n_tables": 4, "pages_per_table": 50}),
])
class TestWorkloadContract:
    def test_streams_deterministic(self, name, kwargs):
        first = make_workload(name, seed=9, **kwargs)
        second = make_workload(name, seed=9, **kwargs)
        pages_a = [t.pages for t in take_transactions(first, 3, 10)]
        pages_b = [t.pages for t in take_transactions(second, 3, 10)]
        assert pages_a == pages_b

    def test_streams_differ_across_threads(self, name, kwargs):
        workload = make_workload(name, seed=9, **kwargs)
        a = [t.pages for t in take_transactions(workload, 0, 5)]
        b = [t.pages for t in take_transactions(workload, 1, 5)]
        if name == "tablescan":
            # Different threads scan different tables.
            assert a[0][0].space != b[0][0].space
        else:
            assert a != b

    def test_all_accesses_within_schema(self, name, kwargs):
        workload = make_workload(name, seed=9, **kwargs)
        schema = workload.schema
        for transaction in take_transactions(workload, 0, 30):
            for page in transaction.pages:
                relation = schema[str(page.space)]
                assert 0 <= page.block < relation.n_pages

    def test_working_set_covers_accesses(self, name, kwargs):
        workload = make_workload(name, seed=9, **kwargs)
        working_set = set(workload.working_set_pages())
        for transaction in take_transactions(workload, 2, 20):
            assert working_set.issuperset(transaction.pages)

    def test_seed_changes_stream(self, name, kwargs):
        if name == "tablescan":
            pytest.skip("tablescan is deliberately seed-independent")
        a = make_workload(name, seed=1, **kwargs)
        b = make_workload(name, seed=2, **kwargs)
        assert ([t.pages for t in take_transactions(a, 0, 5)]
                != [t.pages for t in take_transactions(b, 0, 5)])


class TestDBT1:
    def test_index_roots_are_hot(self):
        workload = DBT1Workload(seed=3, scale=0.2)
        trace = merged_trace(workload, 20000)
        counts = Counter(trace)
        root = PageId("item_idx", 0)
        assert counts[root] > len(trace) / 200

    def test_item_accesses_zipf_skewed(self):
        workload = DBT1Workload(seed=3, scale=0.2)
        trace = merged_trace(workload, 30000)
        item_counts = Counter(page for page in trace
                              if page.space == "item")
        total_items = sum(item_counts.values())
        top_50 = sum(count for _, count in item_counts.most_common(50))
        assert top_50 / total_items > 0.4

    def test_scale_controls_size(self):
        small = DBT1Workload(scale=0.1)
        large = DBT1Workload(scale=1.0)
        assert small.total_pages < large.total_pages

    def test_invalid_scale(self):
        with pytest.raises(WorkloadError):
            DBT1Workload(scale=0.0)


class TestDBT2:
    def test_mix_frequencies(self):
        workload = DBT2Workload(seed=3, n_warehouses=5)
        kinds = Counter(t.kind for t in take_transactions(workload, 0, 2000))
        total = sum(kinds.values())
        assert kinds["new_order"] / total == pytest.approx(0.45, abs=0.05)
        assert kinds["payment"] / total == pytest.approx(0.43, abs=0.05)
        for rare in ("order_status", "delivery", "stock_level"):
            assert kinds[rare] / total == pytest.approx(0.04, abs=0.02)

    def test_home_warehouse_affinity(self):
        workload = DBT2Workload(seed=3, n_warehouses=5,
                                remote_warehouse_prob=0.0)
        for transaction in take_transactions(workload, 2, 50):
            warehouse_pages = [page for page in transaction.pages
                               if page.space == "warehouse"]
            assert all(page.block == 2 for page in warehouse_pages)

    def test_single_warehouse_works(self):
        workload = DBT2Workload(seed=3, n_warehouses=1)
        transactions = take_transactions(workload, 0, 50)
        assert all(len(t) > 0 for t in transactions)

    def test_invalid_warehouses(self):
        with pytest.raises(WorkloadError):
            DBT2Workload(n_warehouses=0)


class TestTableScan:
    def test_scans_are_sequential_and_complete(self):
        workload = TableScanWorkload(n_tables=3, pages_per_table=40)
        transaction = take_transactions(workload, 1, 1)[0]
        assert len(transaction) == 40
        blocks = [page.block for page in transaction.pages]
        assert blocks == list(range(40))
        assert transaction.work_factor == TableScanWorkload.SCAN_WORK_FACTOR

    def test_tables_assigned_round_robin(self):
        workload = TableScanWorkload(n_tables=2, pages_per_table=10)
        t0 = take_transactions(workload, 0, 1)[0]
        t2 = take_transactions(workload, 2, 1)[0]
        assert t0.pages[0].space == t2.pages[0].space

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TableScanWorkload(n_tables=0)
        with pytest.raises(WorkloadError):
            TableScanWorkload(pages_per_table=0)


class TestTraces:
    def test_trace_workload_replays_in_chunks(self):
        accesses = [PageId("t", block) for block in range(10)]
        workload = TraceWorkload(accesses, accesses_per_transaction=4)
        transactions = take_transactions(workload, 0, 3)
        assert [len(t) for t in transactions] == [4, 4, 2]
        replayed = [page for t in transactions for page in t.pages]
        assert replayed == accesses

    def test_trace_workload_validation(self):
        with pytest.raises(WorkloadError):
            TraceWorkload([])

    def test_synthetic_builders(self):
        trace = (SyntheticTrace(seed=1)
                 .zipf("hot", 100, 500, theta=0.9)
                 .scan("cold", 50, repeats=2)
                 .loop("loop", 10, 30))
        accesses = trace.accesses
        assert len(accesses) == 500 + 100 + 30
        scan_pages = [page for page in accesses if page.space == "cold"]
        assert [page.block for page in scan_pages] == list(range(50)) * 2

    def test_interleave(self):
        a = SyntheticTrace(seed=1).scan("a", 4)
        b = SyntheticTrace(seed=1).scan("b", 4)
        merged = a.interleave(b)
        spaces = [page.space for page in merged.accesses]
        assert spaces == ["a", "b"] * 4

    def test_merged_trace_length_and_determinism(self):
        workload = DBT1Workload(seed=5, scale=0.2)
        trace_a = merged_trace(workload, 5000)
        trace_b = merged_trace(workload, 5000)
        assert len(trace_a) == 5000
        assert trace_a == trace_b


class TestDbt2Shapes:
    def test_delivery_touches_ten_districts(self):
        from repro.workloads.dbt2 import DBT2Workload
        workload = DBT2Workload(seed=4, n_warehouses=3)
        stream = workload.transaction_stream(0)
        delivery = next(t for t in itertools.islice(stream, 500)
                        if t.kind == "delivery")
        new_order_pages = [page for page in delivery.pages
                           if page.space == "new_order"]
        assert len(new_order_pages) == 10

    def test_stock_level_scans_contiguously(self):
        from repro.workloads.dbt2 import DBT2Workload
        workload = DBT2Workload(seed=4, n_warehouses=3)
        stream = workload.transaction_stream(1)
        stock_level = next(t for t in itertools.islice(stream, 800)
                           if t.kind == "stock_level")
        stock_blocks = [page.block for page in stock_level.pages
                        if page.space == "stock"]
        assert len(stock_blocks) == 40
        deltas = {(b - a) % DBT2Workload.STOCK_PAGES
                  for a, b in zip(stock_blocks, stock_blocks[1:])}
        assert deltas == {1}  # a contiguous (wrapping) sweep

    def test_remote_warehouse_probability(self):
        from repro.workloads.dbt2 import DBT2Workload
        workload = DBT2Workload(seed=4, n_warehouses=4,
                                remote_warehouse_prob=1.0)
        stream = workload.transaction_stream(0)  # home warehouse 0
        new_order = next(t for t in itertools.islice(stream, 100)
                         if t.kind == "new_order")
        stock_warehouses = {page.block // DBT2Workload.STOCK_PAGES
                            for page in new_order.pages
                            if page.space == "stock"}
        assert 0 not in stock_warehouses  # all lines remote


class TestDbt1BTree:
    def test_probe_walks_root_internal_leaf(self):
        from repro.workloads.dbt1 import DBT1Workload
        workload = DBT1Workload(seed=1, scale=0.2)
        path = workload._item_btree.probe(0.5)
        assert len(path) == 3
        assert path[0].block == 0                     # root
        assert 1 <= path[1].block <= 10               # internal
        assert path[2].block > 10                     # leaf

    def test_leaf_range_is_contiguous(self):
        from repro.workloads.dbt1 import DBT1Workload
        workload = DBT1Workload(seed=1, scale=0.2)
        pages = workload._item_btree.leaf_range(0.3, n_leaves=5)
        leaf_blocks = [page.block for page in pages[2:]]
        assert leaf_blocks == list(range(leaf_blocks[0],
                                         leaf_blocks[0] + len(leaf_blocks)))

    def test_too_small_index_rejected(self):
        from repro.db.relations import Relation
        from repro.workloads.dbt1 import _BTree
        with pytest.raises(WorkloadError):
            _BTree(Relation("idx", 5), fanout=10)


#: sha256 of the first 3,000 transactions of three thread streams per
#: workload (seed 42), keyed "<workload>[-<warehouses>]-<thread>".
STREAM_DIGESTS = {
    "dbt2-10-0":
        "7e5cb9fcc424f977b492d65777f30a64aa4a5e631c6f47615b87e1eb929dabb4",
    "dbt2-10-1":
        "352100bf59a6b9d70a481e632c16c6b510b9c79e9ebf1b3bf374eea901917eee",
    "dbt2-10-31":
        "04a0073f26ccbaffb8920630f3a2de260a042183e4de8fa210c5bf27109d7f70",
    "dbt2-50-0":
        "ee915dbbf57ae100a2106a3b095ab42ca791d64765853421f91a20738188e51f",
    "dbt2-50-1":
        "b933da94318603c406d69c68261b639ad6b326df0dc0910285beb7d42292d77e",
    "dbt2-50-31":
        "e5170915d5746ef265d86c3bc50849dd904d15e54c246f2ced1bdef010b2b523",
    "dbt1-0":
        "b0d7f807799eec38b026064f2fc8bf6120883bd8f7c89bc6ed886222e1c60513",
    "dbt1-1":
        "fcbf6cf5fdcf3439e3ec36bcfab07120320401339d60192752df0ed1b8f0ebe2",
    "dbt1-31":
        "b89a86ccb768ae4d01859091112cacf06addc527f587ffa2db0f56489b065e49",
    "tpcc_lite-0":
        "587ef5f08e8d7632242fc3c0c34fab3ee446472fe9ae836dd1f7c506a08b706e",
    "tpcc_lite-1":
        "1dcbb7daea2c466f44d0ed6fcb5a5f7655e0a8c2d0b91c914f6fb8224c54277a",
    "tpcc_lite-31":
        "133552221200d85c3f054bbc31cbf22824aae1dbf267520d457e103a6827c13c",
}

#: sha256 of 2,000 ``TenantState.next_pages(rng, 4)`` requests.
TENANT_PAGES_DIGEST = (
    "0c91b622405dc455401fb1476884003c429919a8f83047e7625d00f5271bb523")


def _stream_digest(workload, thread_index, count=3_000):
    """sha256 over the first ``count`` transactions of one stream: the
    kind, the page list, the sorted write indices, the think time and
    the work factor of each."""
    digest = hashlib.sha256()
    for tx in take_transactions(workload, thread_index, count):
        digest.update(repr((
            tx.kind, [(page.space, page.block) for page in tx.pages],
            sorted(tx.write_indices), tx.think_time_us, tx.work_factor,
        )).encode())
    return digest.hexdigest()


class TestStreamIdentity:
    """The streams are pinned draw for draw: a generator rewrite must
    consume the same ``random.Random`` calls in the same order and name
    the same pages, or every run digest downstream moves."""

    WORKLOADS = {
        "dbt2-10": ("dbt2", {"n_warehouses": 10}),
        "dbt2-50": ("dbt2", {"n_warehouses": 50}),
        "dbt1": ("dbt1", {}),
        "tpcc_lite": ("tpcc_lite", {}),
    }

    @pytest.mark.parametrize("key", sorted(WORKLOADS))
    @pytest.mark.parametrize("thread_index", [0, 1, 31])
    def test_stream_digest(self, key, thread_index):
        name, kwargs = self.WORKLOADS[key]
        workload = make_workload(name, seed=42, **kwargs)
        assert _stream_digest(workload, thread_index) == \
            STREAM_DIGESTS[f"{key}-{thread_index}"]

    def test_tenant_pages_digest(self):
        from repro.serve.tenants import TenantSpec, TenantState
        tenant = TenantState(TenantSpec(3, "tenant03", 128, 0.8, None, 8),
                             hot_pages=16, hot_fraction=0.1, hot_skew=0.6)
        rng = random.Random(42)
        digest = hashlib.sha256()
        for _ in range(2_000):
            digest.update(repr([(page.space, page.block) for page
                                in tenant.next_pages(rng, 4)]).encode())
        assert digest.hexdigest() == TENANT_PAGES_DIGEST
