"""Tests for tags, descriptors, hash table, and the buffer manager."""

from __future__ import annotations

import pytest

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.hashtable import BufferHashTable
from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import BufferTag, PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import DirectHandler, ThreadSlot
from repro.errors import BufferError_
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.lru import LRUPolicy
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.sync.locks import SimLock


class TestPageId:
    def test_identity_and_hashing(self):
        assert PageId("t", 1) == PageId("t", 1)
        assert PageId("t", 1) != PageId("t", 2)
        assert PageId("t", 1) != PageId("u", 1)
        assert hash(PageId("t", 1)) == hash(("t", 1))

    def test_next(self):
        assert PageId("t", 1).next() == PageId("t", 2)

    def test_buffer_tag_alias(self):
        assert BufferTag is PageId

    def test_str(self):
        assert str(PageId("orders", 7)) == "orders:7"


class TestBufferDesc:
    def test_pin_unpin(self):
        desc = BufferDesc(0)
        desc.pin()
        desc.pin()
        assert desc.pin_count == 2
        desc.unpin()
        desc.unpin()
        assert not desc.pinned

    def test_unpin_unpinned_raises(self):
        desc = BufferDesc(0)
        with pytest.raises(BufferError_):
            desc.unpin()

    def test_retag_invalidates_and_bumps_generation(self):
        desc = BufferDesc(0)
        desc.retag(PageId("t", 1))
        desc.valid = True
        generation = desc.generation
        desc.retag(PageId("t", 2))
        assert not desc.valid
        assert desc.generation == generation + 1

    def test_matches_requires_valid_and_same_tag(self):
        desc = BufferDesc(0)
        desc.retag(PageId("t", 1))
        assert not desc.matches(PageId("t", 1))  # not yet valid
        desc.valid = True
        assert desc.matches(PageId("t", 1))
        assert not desc.matches(PageId("t", 2))


class TestHashTable:
    def test_insert_lookup_remove(self, sim):
        table = BufferHashTable(sim, n_buckets=8)
        desc = BufferDesc(0)
        tag = PageId("t", 3)
        table.insert(tag, desc)
        assert table.lookup(tag) is desc
        assert tag in table
        assert len(table) == 1
        assert table.remove(tag) is desc
        assert table.lookup(tag) is None

    def test_duplicate_insert_rejected(self, sim):
        table = BufferHashTable(sim, n_buckets=8)
        tag = PageId("t", 3)
        table.insert(tag, BufferDesc(0))
        with pytest.raises(BufferError_):
            table.insert(tag, BufferDesc(1))

    def test_remove_missing_rejected(self, sim):
        table = BufferHashTable(sim, n_buckets=8)
        with pytest.raises(BufferError_):
            table.remove(PageId("t", 1))

    def test_load_factor(self, sim):
        table = BufferHashTable(sim, n_buckets=10)
        for block in range(30):
            table.insert(PageId("t", block), BufferDesc(block))
        assert table.load_factor() == pytest.approx(3.0)

    def test_simulated_bucket_locks_created(self, sim):
        table = BufferHashTable(sim, n_buckets=4, simulate_locks=True)
        assert table.bucket_locks is not None
        assert len(table.bucket_locks) == 4


def build_manager(sim, capacity=8, costs=None):
    costs = costs or CostModel(user_work_us=1.0, context_switch_us=0.5)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=costs.lock_grant_us,
                   try_cost_us=costs.try_lock_us)
    cache = MetadataCacheModel(costs)
    handler = DirectHandler(policy, lock, cache, costs,
                            ControlState(64, 32, prefetch=False))
    manager = BufferManager(sim, capacity, policy, handler, costs)
    return manager, policy, lock


def drive(sim, manager, accesses, n_threads=1, n_cpus=2):
    """Run page accesses through the manager on simulated threads."""
    pool = ProcessorPool(sim, n_cpus, context_switch_us=0.5)
    outcomes = []

    def body(slot, pages):
        for page in pages:
            hit = yield from manager.access(slot, page)
            outcomes.append((slot.thread.name, page, hit))

    per_thread = [accesses[i::n_threads] for i in range(n_threads)]
    for index in range(n_threads):
        thread = CpuBoundThread(pool, name=f"t{index}")
        slot = ThreadSlot(thread, index, queue_size=64)
        thread.start(body(slot, per_thread[index]))
    sim.run()
    return outcomes


class TestBufferManager:
    def test_miss_then_hit(self, sim):
        manager, _, _ = build_manager(sim)
        outcomes = drive(sim, manager,
                         [PageId("t", 1), PageId("t", 1)])
        assert [hit for _, _, hit in outcomes] == [False, True]
        assert manager.stats.hits == 1
        assert manager.stats.misses == 1

    def test_capacity_respected_with_eviction(self, sim):
        manager, policy, _ = build_manager(sim, capacity=4)
        pages = [PageId("t", block) for block in range(10)]
        drive(sim, manager, pages)
        assert manager.resident_count == 4
        assert manager.stats.evictions == 6
        manager.check_invariants()

    def test_policy_and_table_stay_consistent(self, sim):
        manager, _, _ = build_manager(sim, capacity=8)
        import random
        rng = random.Random(3)
        pages = [PageId("t", rng.randint(0, 30)) for _ in range(300)]
        drive(sim, manager, pages, n_threads=4)
        manager.check_invariants()

    def test_warm_with_prefills(self, sim):
        manager, _, _ = build_manager(sim, capacity=8)
        pages = [PageId("t", block) for block in range(8)]
        assert manager.warm_with(pages) == 8
        outcomes = drive(sim, manager, pages)
        assert all(hit for _, _, hit in outcomes)
        assert manager.stats.misses == 0

    def test_warm_with_skips_duplicates(self, sim):
        manager, _, _ = build_manager(sim, capacity=8)
        page = PageId("t", 0)
        assert manager.warm_with([page, page]) == 1

    def test_invalidate_drops_page_and_reuses_frame(self, sim):
        manager, _, _ = build_manager(sim, capacity=4)
        pages = [PageId("t", block) for block in range(4)]
        manager.warm_with(pages)
        assert manager.invalidate(PageId("t", 2))
        assert manager.lookup(PageId("t", 2)) is None
        assert manager.resident_count == 3
        # The freed frame is reused without eviction.
        drive(sim, manager, [PageId("t", 9)])
        assert manager.stats.evictions == 0
        manager.check_invariants()

    def test_invalidate_missing_returns_false(self, sim):
        manager, _, _ = build_manager(sim)
        assert not manager.invalidate(PageId("t", 0))

    def test_invalidate_pinned_raises(self, sim):
        manager, _, _ = build_manager(sim, capacity=2)
        page = PageId("t", 0)
        manager.warm_with([page])
        manager.lookup(page).pin()
        with pytest.raises(BufferError_):
            manager.invalidate(page)

    def test_capacity_mismatch_rejected(self, sim):
        costs = CostModel()
        policy = LRUPolicy(4)
        lock = SimLock(sim)
        cache = MetadataCacheModel(costs)
        handler = DirectHandler(policy, lock, cache, costs,
                                ControlState(64, 32, prefetch=False))
        with pytest.raises(BufferError_):
            BufferManager(sim, 8, policy, handler, costs)

    def test_concurrent_miss_absorbed(self, sim):
        # Two threads missing the same page: one I/O, two satisfied.
        from repro.db.storage import DiskArray
        costs = CostModel(user_work_us=1.0, disk_read_us=100.0,
                          disk_concurrency=2)
        policy = LRUPolicy(4)
        lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        cache = MetadataCacheModel(costs)
        handler = DirectHandler(policy, lock, cache, costs,
                                ControlState(64, 32, prefetch=False))
        disk = DiskArray(sim, costs.disk_read_us, costs.disk_concurrency)
        manager = BufferManager(sim, 4, policy, handler, costs, disk=disk)
        page = PageId("t", 0)
        drive(sim, manager, [page, page], n_threads=2, n_cpus=2)
        assert disk.reads == 1
        assert manager.stats.absorbed_misses == 1
        assert manager.stats.hits == 1
        assert manager.stats.misses == 1
        manager.check_invariants()
