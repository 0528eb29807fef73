"""Query-execution layer: B-tree layout, operators, executor, contexts.

Trace-mode tests step operators with :func:`repro.runtime.base.drive`
(their ``fetch`` never suspends); live-mode tests run the same operator
code on simulated threads against a real buffer manager and check the
pin spans the victim-selection logic depends on.
"""

from __future__ import annotations

import pytest

from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import DirectHandler, ThreadSlot
from repro.db.exec import (BTreeIndex, HashJoin, HeapScan, IndexLookup,
                           Insert, LiveExecContext, NestedLoopJoin,
                           TraceExecContext, Update, drain_plan, run_plan,
                           run_statements)
from repro.db.relations import Relation
from repro.errors import WorkloadError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.lru import LRUPolicy
from repro.runtime.base import drive
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.sync.locks import SimLock


def make_manager(sim, capacity=16):
    costs = CostModel(user_work_us=1.0, context_switch_us=0.5)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=costs.lock_grant_us,
                   try_cost_us=costs.try_lock_us)
    handler = DirectHandler(policy, lock, MetadataCacheModel(costs), costs,
                            ControlState(64, 32, prefetch=False))
    return BufferManager(sim, capacity, policy, handler, costs)


def make_live_ctx(sim, capacity=16):
    manager = make_manager(sim, capacity)
    pool = ProcessorPool(sim, 2, context_switch_us=0.5)
    thread = CpuBoundThread(pool, name="exec")
    slot = ThreadSlot(thread, 0, queue_size=64)
    return LiveExecContext(slot, manager), manager, thread


class TestBTreeIndex:
    def test_layout(self):
        index = BTreeIndex("idx", n_keys=1000, keys_per_leaf=64, fanout=16)
        assert index.n_leaves == 16  # ceil(1000 / 64)
        assert index.n_inner == 1    # ceil(16 / 16)
        assert index.n_pages == 1 + 1 + 16
        assert index.root_page() == PageId("idx", 0)

    def test_search_path_root_inner_leaf(self):
        index = BTreeIndex("idx", n_keys=2048, keys_per_leaf=64, fanout=4)
        assert index.n_leaves == 32 and index.n_inner == 8
        path = index.search_path(0)
        assert path == [PageId("idx", 0), PageId("idx", 1), PageId("idx", 9)]
        path = index.search_path(2047)
        assert path == [PageId("idx", 0), PageId("idx", 8),
                        PageId("idx", 1 + 8 + 31)]
        # Every lookup passes through the root.
        assert all(index.search_path(key)[0] == index.root_page()
                   for key in range(0, 2048, 97))

    def test_key_out_of_range(self):
        index = BTreeIndex("idx", n_keys=10)
        with pytest.raises(WorkloadError):
            index.search_path(10)
        with pytest.raises(WorkloadError):
            index.search_path(-1)

    def test_bad_parameters(self):
        with pytest.raises(WorkloadError):
            BTreeIndex("idx", n_keys=0)
        with pytest.raises(WorkloadError):
            BTreeIndex("idx", n_keys=10, fanout=0)


class TestTraceMode:
    def test_heap_scan_pages_and_rows(self):
        rel = Relation("heap", 4)
        ctx = TraceExecContext()
        scan = HeapScan(rel, rows_per_page=2, start_block=3, n_blocks=2)
        rows = drain_plan(scan, ctx)
        assert rows == 4
        # Wraps from the last block back to block 0.
        assert ctx.pages == [PageId("heap", 3), PageId("heap", 0)]
        assert ctx.write_indices == set()
        assert ctx.pins_held == 0  # run_plan released everything

    def test_for_update_scan_records_writes(self):
        rel = Relation("heap", 2)
        ctx = TraceExecContext()
        drain_plan(HeapScan(rel, rows_per_page=1, n_blocks=2,
                            for_update=True), ctx)
        assert ctx.write_indices == {0, 1}

    def test_index_lookup_walk_then_heap(self):
        index = BTreeIndex("idx", n_keys=256, keys_per_leaf=64, fanout=4)
        heap = Relation("heap", 8)
        ctx = TraceExecContext()
        lookup = IndexLookup(index, heap, keys=[70], heap_rows_per_page=16)
        rows = drain_plan(lookup, ctx)
        assert rows == 1
        assert ctx.pages == index.search_path(70) + [PageId("heap", 4)]

    def test_insert_dirties_ring_pages(self):
        ring = Relation("ring", 4)
        ctx = TraceExecContext()
        rows = drain_plan(Insert(ring, start_row=6, n_rows=4,
                                 rows_per_page=2), ctx)
        assert rows == 4
        assert ctx.pages == [PageId("ring", 3), PageId("ring", 3),
                             PageId("ring", 0), PageId("ring", 0)]
        assert ctx.write_indices == {0, 1, 2, 3}

    def test_update_refetches_rows_page(self):
        rel = Relation("heap", 4)
        ctx = TraceExecContext()
        plan = Update(HeapScan(rel, rows_per_page=1, n_blocks=2),
                      page_of=lambda row: rel.page(row % rel.n_pages))
        rows = drain_plan(plan, ctx)
        assert rows == 2
        # scan page, update fetch, scan page, update fetch.
        assert ctx.pages == [PageId("heap", 0), PageId("heap", 0),
                             PageId("heap", 1), PageId("heap", 1)]
        assert ctx.write_indices == {1, 3}

    def test_hash_join_membership(self):
        build_rel = Relation("b", 2)
        probe_rel = Relation("p", 4)
        ctx = TraceExecContext()
        join = HashJoin(HeapScan(build_rel, rows_per_page=2, n_blocks=2),
                        HeapScan(probe_rel, rows_per_page=2, n_blocks=4),
                        key_of_build=lambda row: row,
                        key_of_probe=lambda row: row)
        rows = drain_plan(join, ctx)
        assert join.build_rows == 4
        assert rows == 4  # probe rows 0..7, build keys 0..3 survive
        assert ctx.pages[:2] == [PageId("b", 0), PageId("b", 1)]

    def test_nested_loop_join_probes_per_outer_row(self):
        index = BTreeIndex("idx", n_keys=64, keys_per_leaf=16, fanout=4)
        heap = Relation("heap", 4)
        outer = Relation("outer", 1)
        ctx = TraceExecContext()
        join = NestedLoopJoin(
            HeapScan(outer, rows_per_page=3, n_blocks=1),
            IndexLookup(index, heap), key_of=lambda row: row * 7)
        rows = drain_plan(join, ctx)
        assert rows == 3
        # 1 outer page + 3 probes x (3-level walk + heap page).
        assert len(ctx.pages) == 1 + 3 * 4

    def test_run_statements_sums_rows(self):
        rel = Relation("heap", 2)
        ctx = TraceExecContext()
        gen = run_statements([HeapScan(rel, rows_per_page=2, n_blocks=2),
                              Insert(rel, 0, 3, rows_per_page=2)], ctx)
        assert drive(gen) == 7

    def test_op_stats_breakdown(self):
        rel = Relation("heap", 2)
        ctx = TraceExecContext()
        drain_plan(HeapScan(rel, rows_per_page=4, n_blocks=2,
                            name="scan_a"), ctx)
        drain_plan(Insert(rel, 0, 2, rows_per_page=4, name="ins_b"), ctx)
        stats = ctx.merged_op_stats()
        assert stats["scan_a"] == {"accesses": 2, "writes": 0, "hits": 0}
        assert stats["ins_b"] == {"accesses": 2, "writes": 2, "hits": 0}
        assert ctx.total_accesses == 4

    def test_reset_clears_stream(self):
        rel = Relation("heap", 2)
        ctx = TraceExecContext()
        drain_plan(HeapScan(rel, rows_per_page=1, n_blocks=1,
                            for_update=True), ctx)
        ctx.reset()
        assert ctx.pages == [] and ctx.write_indices == set()
        assert ctx.pins_held == 0


class TestLiveMode:
    def test_scan_holds_current_page_pinned(self, sim):
        ctx, manager, thread = make_live_ctx(sim)
        rel = Relation("heap", 3)
        pin_samples = []

        def body():
            scan = HeapScan(rel, rows_per_page=2, n_blocks=3)
            yield from scan.open(ctx)
            while True:
                row = yield from scan.next(ctx)
                if row is None:
                    break
                block = row // 2
                pin_samples.append(
                    (row, manager.lookup(rel.page(block)).pin_count))
            scan.close(ctx)

        thread.start(body())
        sim.run()
        # Between next() calls the current page stays pinned.
        assert pin_samples == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]
        assert ctx.pins_held == 0
        manager.check_invariants(expect_no_pins=True)

    def test_join_holds_outer_across_inner_probe(self, sim):
        ctx, manager, thread = make_live_ctx(sim, capacity=32)
        index = BTreeIndex("idx", n_keys=64, keys_per_leaf=16, fanout=4)
        heap = Relation("heap", 4)
        outer = Relation("outer", 1)
        samples = []

        def body():
            join = NestedLoopJoin(HeapScan(outer, rows_per_page=2,
                                           n_blocks=1),
                                  IndexLookup(index, heap))
            rows = yield from run_plan(join, ctx)
            samples.append(rows)

        original_fetch = ctx.fetch
        outer_page = outer.page(0)
        outer_pins_during_probe = []

        def spying_fetch(op_name, page, is_write=False):
            if page.space != "outer":
                desc = manager.lookup(outer_page)
                outer_pins_during_probe.append(
                    desc.pin_count if desc is not None else 0)
            result = yield from original_fetch(op_name, page, is_write)
            return result

        ctx.fetch = spying_fetch
        thread.start(body())
        sim.run()
        assert samples == [2]
        # Every inner-probe fetch saw the outer page still pinned.
        assert outer_pins_during_probe
        assert all(count == 1 for count in outer_pins_during_probe)
        manager.check_invariants(expect_no_pins=True)

    def test_insert_marks_pages_dirty(self, sim):
        ctx, manager, thread = make_live_ctx(sim)
        ring = Relation("ring", 2)

        def body():
            yield from run_plan(Insert(ring, 0, 4, rows_per_page=2), ctx)

        thread.start(body())
        sim.run()
        assert manager.lookup(ring.page(0)).dirty
        assert manager.lookup(ring.page(1)).dirty
        assert manager.stats.write_accesses == 4
        manager.check_invariants(expect_no_pins=True)

    def test_aborted_plan_releases_all_pins(self, sim):
        """Closing the thread body mid-plan unwinds every operator pin."""
        ctx, manager, thread = make_live_ctx(sim)
        index = BTreeIndex("idx", n_keys=64, keys_per_leaf=16, fanout=4)
        heap = Relation("heap", 4)
        outer = Relation("outer", 2)

        def body():
            join = NestedLoopJoin(HeapScan(outer, rows_per_page=4,
                                           n_blocks=2),
                                  IndexLookup(index, heap))
            yield from run_plan(join, ctx)
            raise AssertionError("the aborted plan must not complete")

        live = body()
        thread.start(live)
        now = 0.0
        while ctx.pins_held == 0 and now < 500.0:
            now += 5.0
            sim.run(until=now)
        assert ctx.pins_held > 0  # mid-plan, pins legitimately held
        live.close()
        assert ctx.pins_held == 0
        manager.check_invariants(expect_no_pins=True)

    def test_trace_and_live_streams_agree(self, sim):
        """The same plan touches the same pages under both contexts."""
        index = BTreeIndex("idx", n_keys=64, keys_per_leaf=16, fanout=4)
        heap = Relation("heap", 4)
        outer = Relation("outer", 1)

        def make_plan():
            return NestedLoopJoin(HeapScan(outer, rows_per_page=4,
                                           n_blocks=1),
                                  IndexLookup(index, heap),
                                  key_of=lambda row: row * 5)

        trace = TraceExecContext()
        drain_plan(make_plan(), trace)

        ctx, manager, thread = make_live_ctx(sim, capacity=32)
        live_pages = []
        original_fetch = ctx.fetch

        def recording_fetch(op_name, page, is_write=False):
            live_pages.append(page)
            result = yield from original_fetch(op_name, page, is_write)
            return result

        ctx.fetch = recording_fetch

        def body():
            yield from run_plan(make_plan(), ctx)

        thread.start(body())
        sim.run()
        assert live_pages == trace.pages
        assert ctx.merged_op_stats().keys() == trace.merged_op_stats().keys()
        for name, entry in trace.merged_op_stats().items():
            live_entry = ctx.merged_op_stats()[name]
            assert live_entry["accesses"] == entry["accesses"]
            assert live_entry["writes"] == entry["writes"]
