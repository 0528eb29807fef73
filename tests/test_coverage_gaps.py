"""Edge-case coverage for corners the main suites pass over."""

from __future__ import annotations

import itertools

import pytest

from repro.bufmgr.tags import PageId
from repro.errors import PolicyError, WorkloadError
from repro.simcore.engine import Simulator, Timeout


class TestEnginePeekAndBudget:
    def test_peek_returns_next_timestamp(self, sim):
        assert sim.peek() is None
        sim.timeout(7.0)
        sim.timeout(3.0)
        assert sim.peek() == 3.0

    def test_run_after_drain_is_noop(self, sim):
        sim.timeout(1.0)
        sim.run()
        at = sim.now
        sim.run()
        assert sim.now == at

    def test_events_processed_accumulates(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        sim.run(max_events=2)
        sim.run()
        assert sim.events_processed == 5


class TestSeqHousekeeping:
    def test_max_sequences_trims_weakest(self):
        from repro.policies.seq import SEQPolicy
        policy = SEQPolicy(1000, seq_threshold=4, max_sequences=3)
        # Start runs in 5 spaces; the two weakest must be forgotten.
        for space_index in range(5):
            for block in range(space_index + 1):
                policy.on_miss((f"s{space_index}", block))
        lengths = policy.active_sequence_lengths()
        assert len(lengths) <= 3

    def test_non_tuple_keys_do_not_track_sequences(self):
        from repro.policies.seq import SEQPolicy
        policy = SEQPolicy(10)
        policy.on_miss("plain-string-key")
        assert policy.active_sequence_lengths() == {}


class TestLIRSEdges:
    def test_capacity_one(self):
        from repro.policies.lirs import LIRSPolicy
        policy = LIRSPolicy(1)
        for block in range(20):
            policy.access(("t", block % 3))
            assert policy.resident_count <= 1

    def test_invalid_hir_fraction(self):
        from repro.policies.lirs import LIRSPolicy
        with pytest.raises(PolicyError):
            LIRSPolicy(10, hir_fraction=1.5)


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


class TestSharedQueueStats:
    def test_merged_stats_include_record_lock(self, tiny_machine):
        from repro.harness.systems import build_system
        sim = Simulator()
        build = build_system("pgBatShared", sim, 64, tiny_machine)
        record_lock = build.extra["record_lock"]
        record_lock.stats.requests = 7
        build.lock.stats.requests = 3
        assert build.handler.merged_lock_stats().requests == 10


class TestFigureCharts:
    def test_fig2_includes_loglog_chart(self):
        from repro.harness.figures import fig2
        result = fig2(target_accesses=5000, seed=3)
        assert result.charts
        assert "(log y axis)" in result.charts[0]
        rendered = result.render(include_charts=True)
        assert "log-log" in rendered or "(log y axis)" in rendered

    def test_render_without_charts_by_default(self):
        from repro.harness.figures import fig2
        result = fig2(target_accesses=5000, seed=3)
        assert "(log y axis)" not in result.render()


class TestAnalysisSweep:
    def test_sweep_capacity_keys_and_policy_kwargs(self):
        from repro.analysis.hitratio import sweep_capacity
        trace = [PageId("t", block % 30) for block in range(500)]
        results = sweep_capacity("2q", trace, [5, 10],
                                 kin_fraction=0.5)
        assert set(results) == {5, 10}
        assert all(r.policy == "2q" for r in results.values())


class TestTinyLfuInRegistry:
    def test_make_policy_with_kwargs(self):
        from repro.policies.registry import make_policy
        policy = make_policy("tinylfu", 50, window_fraction=0.1)
        assert policy.window_capacity == 5

    def test_register_policy_and_duplicate_collision(self):
        import pytest

        from repro.errors import ConfigError
        from repro.policies.lru import LRUPolicy
        from repro.policies.registry import (available_policies,
                                             make_policy, register_policy)

        class Custom(LRUPolicy):
            name = "custom-test-policy"

        register_policy("custom-test-policy", Custom)
        assert "custom-test-policy" in available_policies()
        assert isinstance(make_policy("custom-test-policy", 4), Custom)
        # Re-registering the same name is a collision unless the
        # caller explicitly opts into replacement.
        with pytest.raises(ConfigError):
            register_policy("custom-test-policy", Custom)
        register_policy("custom-test-policy", Custom, replace=True)
        assert isinstance(make_policy("custom-test-policy", 4), Custom)


class TestThinkTime:
    def test_think_time_spends_off_cpu(self, tiny_machine):
        from repro.db.relations import Relation, Schema
        from repro.db.transactions import Transaction
        from repro.harness.experiment import ExperimentConfig, run_experiment
        from repro.workloads.base import Workload

        class ThinkWorkload(Workload):
            name = "think"

            def __init__(self, think_us, seed=0):
                super().__init__(seed)
                self.think_us = think_us
                self._relation = Relation("t", 16)
                self._schema = Schema([self._relation])

            @property
            def schema(self):
                return self._schema

            def transaction_stream(self, thread_index):
                while True:
                    yield Transaction("think",
                                      list(self._relation.pages()),
                                      think_time_us=self.think_us)

        def throughput(think_us):
            workload = ThinkWorkload(think_us)
            config = ExperimentConfig(
                system="pgclock", workload="think",
                machine=tiny_machine, n_processors=2, n_threads=2,
                target_accesses=2000, warmup_fraction=0.0)
            return run_experiment(config, workload=workload).throughput_tps

        # Think time idles the client between transactions: with as
        # many threads as CPUs, throughput must drop.
        assert throughput(5_000.0) < throughput(0.0) * 0.5


class TestDistributedLockFreeRoute:
    def test_partitioned_clock_hits_need_no_lock(self, tiny_machine):
        from repro.core.bpwrapper import ThreadSlot
        from repro.harness.distributed import build_distributed_system
        from repro.simcore.cpu import CpuBoundThread, ProcessorPool

        sim = Simulator()
        build = build_distributed_system(sim, 64, tiny_machine,
                                         policy_name="clock")
        manager = build.manager
        pages = [PageId("t", block) for block in range(16)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            for page in pages:
                yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        assert build.handler.merged_lock_stats().acquisitions == 0


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


class TestSharedQueueDrops:
    def test_overflow_counted(self, tiny_machine):
        from repro.harness.systems import build_system
        from repro.core.bpwrapper import ThreadSlot
        from repro.simcore.cpu import CpuBoundThread, ProcessorPool

        sim = Simulator()
        build = build_system("pgBatShared", sim, 64, tiny_machine,
                             queue_size=1, batch_threshold=1)
        handler = build.handler
        manager = build.manager
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        # Saturate the shared queue directly, then hold the main lock
        # so the worker's commit attempt blocks while a second worker
        # arrives at a full queue and must drop its recording.
        desc0 = manager.lookup(pages[0])
        while not handler.shared_queue.full:
            handler.shared_queue.record(desc0, pages[0])
        pool = ProcessorPool(sim, 3, 0.0)
        holder = CpuBoundThread(pool, "holder")
        blocked_worker = CpuBoundThread(pool, "w1")
        late_worker = CpuBoundThread(pool, "w2")
        slot1 = ThreadSlot(blocked_worker, 0, queue_size=1)
        slot2 = ThreadSlot(late_worker, 1, queue_size=1)

        def holder_body():
            yield from build.lock.acquire(holder)
            yield from holder.run_for(1_000.0)
            build.lock.release(holder)

        def blocked_body():
            yield from blocked_worker.run_for(1.0)
            yield from manager.access(slot1, pages[0])

        def late_body():
            yield from late_worker.run_for(2.0)
            yield from manager.access(slot2, pages[1])

        holder.start(holder_body())
        blocked_worker.start(blocked_body())
        late_worker.start(late_body())
        sim.run()
        assert handler.dropped_records > 0
