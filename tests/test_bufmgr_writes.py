"""Tests for write accesses, dirty pages, and write-back on eviction."""

from __future__ import annotations

from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import DirectHandler, ThreadSlot
from repro.db.storage import DiskArray
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.lru import LRUPolicy
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock


def build(sim, capacity=4, with_disk=True):
    costs = CostModel(user_work_us=1.0, disk_read_us=100.0,
                      disk_concurrency=2)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
    cache = MetadataCacheModel(costs)
    handler = DirectHandler(policy, lock, cache, costs,
                            ControlState(64, 32, prefetch=False))
    disk = (DiskArray(sim, costs.disk_read_us, costs.disk_concurrency)
            if with_disk else None)
    manager = BufferManager(sim, capacity, policy, handler, costs,
                            disk=disk)
    return manager, disk


def drive(sim, manager, accesses):
    """accesses: list of (PageId, is_write)."""
    pool = ProcessorPool(sim, 2, 0.5)
    thread = CpuBoundThread(pool)
    slot = ThreadSlot(thread, 0, queue_size=64)

    def body():
        for page, is_write in accesses:
            yield from manager.access(slot, page, is_write=is_write)

    thread.start(body())
    sim.run()
    return slot


class TestDirtyTracking:
    def test_write_hit_marks_dirty(self, sim):
        manager, _ = build(sim)
        page = PageId("t", 0)
        manager.warm_with([page])
        drive(sim, manager, [(page, True)])
        assert manager.lookup(page).dirty
        assert manager.stats.write_accesses == 1

    def test_write_miss_marks_dirty(self, sim):
        manager, _ = build(sim)
        page = PageId("t", 0)
        drive(sim, manager, [(page, True)])
        assert manager.lookup(page).dirty

    def test_read_does_not_mark_dirty(self, sim):
        manager, _ = build(sim)
        page = PageId("t", 0)
        drive(sim, manager, [(page, False), (page, False)])
        assert not manager.lookup(page).dirty
        assert manager.stats.write_accesses == 0

    def test_retag_clears_dirty(self, sim):
        manager, _ = build(sim, capacity=1)
        drive(sim, manager, [(PageId("t", 0), True),
                             (PageId("t", 1), False)])
        desc = manager.lookup(PageId("t", 1))
        assert not desc.dirty


class TestWriteBack:
    def test_dirty_eviction_writes_back(self, sim):
        manager, disk = build(sim, capacity=2)
        drive(sim, manager, [
            (PageId("t", 0), True),    # miss + write
            (PageId("t", 1), False),   # miss
            (PageId("t", 2), False),   # miss: evicts dirty 0 -> write-back
        ])
        assert manager.stats.write_backs == 1
        assert disk.writes == 1
        assert disk.reads == 3

    def test_clean_eviction_skips_write_back(self, sim):
        manager, disk = build(sim, capacity=2)
        drive(sim, manager, [
            (PageId("t", 0), False),
            (PageId("t", 1), False),
            (PageId("t", 2), False),
        ])
        assert manager.stats.write_backs == 0
        assert disk.writes == 0

    def test_write_back_costs_simulated_time(self, sim):
        manager, _ = build(sim, capacity=2)
        drive(sim, manager, [
            (PageId("t", 0), True),
            (PageId("t", 1), False),
            (PageId("t", 2), False),
        ])
        dirty_elapsed = sim.now

        clean_sim = Simulator()
        clean_manager, _ = build(clean_sim, capacity=2)
        drive(clean_sim, clean_manager, [
            (PageId("t", 0), False),
            (PageId("t", 1), False),
            (PageId("t", 2), False),
        ])
        # The dirty run performed one extra 100us disk transfer.
        assert dirty_elapsed >= clean_sim.now + 100.0

    def test_rewritten_page_dirty_again_after_reload(self, sim):
        manager, disk = build(sim, capacity=1)
        page = PageId("t", 0)
        drive(sim, manager, [
            (page, True),              # dirty
            (PageId("t", 1), False),   # evicts 0: write-back
            (page, True),              # reload as write: dirty again
            (PageId("t", 2), False),   # evicts 0 again: second write-back
        ])
        assert manager.stats.write_backs == 2
        assert disk.writes == 2


class TestWorkloadWrites:
    def test_dbt2_marks_tpcc_writes(self):
        import itertools
        from repro.workloads import make_workload
        workload = make_workload("dbt2", seed=2, n_warehouses=4)
        transactions = list(itertools.islice(
            workload.transaction_stream(0), 300))
        by_kind = {}
        for transaction in transactions:
            writes = len(transaction.write_indices)
            total = len(transaction.pages)
            by_kind.setdefault(transaction.kind, [0, 0])
            by_kind[transaction.kind][0] += writes
            by_kind[transaction.kind][1] += total
        # new_order and payment are write-heavy; stock_level is read-only.
        assert by_kind["new_order"][0] > 0
        assert by_kind["payment"][0] > 0
        if "stock_level" in by_kind:
            assert by_kind["stock_level"][0] == 0
        # Write indices are valid positions.
        for transaction in transactions:
            for index in transaction.write_indices:
                assert 0 <= index < len(transaction.pages)

    def test_tablescan_is_read_only(self):
        import itertools
        from repro.workloads import make_workload
        workload = make_workload("tablescan", n_tables=2,
                                 pages_per_table=10)
        transaction = next(workload.transaction_stream(0))
        assert not transaction.write_indices

    def test_transaction_is_write_helper(self):
        from repro.db.transactions import Transaction
        transaction = Transaction("x", [PageId("t", 0), PageId("t", 1)],
                                  write_indices=frozenset({1}))
        assert not transaction.is_write(0)
        assert transaction.is_write(1)
