"""Tests for BP-Wrapper: config, FIFO queue, and the Fig. 4 protocol."""

from __future__ import annotations

import inspect

import pytest

from repro.bufmgr.descriptors import BufferDesc
from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.check.checker import CorrectnessChecker
from repro.control.state import ControlState
from repro.core.bpwrapper import (BatchedHandler, DirectHandler,
                                  LockFreeHitHandler, PlainDirectHandler,
                                  ThreadSlot)
from repro.core.fifoqueue import AccessQueue
from repro.core.lossy import LossyBatchedHandler
from repro.errors import ConfigError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.hardware.machines import ALTIX_350
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.systems import build_system, system_spec
from repro.policies.clock import ClockPolicy
from repro.policies.lru import LRUPolicy
from repro.runtime.base import drive
from repro.runtime.native import NativeRuntime
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock


class TestSystemKnobs:
    """A system is its Table I row plus the pool's ControlState."""

    def build(self, name, **knobs):
        return build_system(name, Simulator(), 16, ALTIX_350, **knobs)

    def test_paper_defaults(self):
        control = self.build("pgBatPre").control
        assert control.queue_size == 64
        assert control.batch_threshold == 32

    def test_threshold_cannot_exceed_queue(self):
        with pytest.raises(ConfigError):
            ControlState(queue_size=8, batch_threshold=9, prefetch=False)
        with pytest.raises(ConfigError):
            self.build("pgBat", queue_size=8, batch_threshold=9)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            ControlState(queue_size=0, batch_threshold=1, prefetch=False)
        with pytest.raises(ConfigError):
            ControlState(queue_size=64, batch_threshold=0, prefetch=False)

    def test_table_rows_name_the_flags(self):
        flags = {name: (system_spec(name).batching, system_spec(name).prefetch)
                 for name in ("pg2Q", "pgBat", "pgPre", "pgBatPre")}
        assert flags == {"pg2Q": (False, False), "pgBat": (True, False),
                         "pgPre": (False, True), "pgBatPre": (True, True)}
        assert self.build("pgPre").control.prefetch
        assert not self.build("pgBat").control.prefetch

    def test_only_batched_rows_take_queue_geometry(self):
        control = self.build("pgBatPre", queue_size=16,
                             batch_threshold=8).control
        assert (control.queue_size, control.batch_threshold) == (16, 8)
        # Unbatched rows keep the trace defaults whatever S and T say.
        control = self.build("pg2Q", queue_size=16, batch_threshold=8).control
        assert (control.queue_size, control.batch_threshold) == (64, 32)


class TestAccessQueue:
    def make_entry(self, block: int):
        desc = BufferDesc(block)
        tag = PageId("t", block)
        desc.retag(tag)
        desc.valid = True
        return desc, tag

    def test_fifo_order_preserved(self):
        queue = AccessQueue(8)
        for block in range(5):
            queue.record(*self.make_entry(block))
        drained = queue.drain()
        assert [tag.block for _desc, tag in drained] == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_record_returns_new_length(self):
        queue = AccessQueue(4)
        assert [queue.record(*self.make_entry(block))
                for block in range(3)] == [1, 2, 3]

    def test_overflow_rejected(self):
        queue = AccessQueue(2)
        queue.record(*self.make_entry(0))
        queue.record(*self.make_entry(1))
        assert queue.full
        with pytest.raises(ConfigError):
            queue.record(*self.make_entry(2))

    def test_batch_accounting(self):
        queue = AccessQueue(8)
        for block in range(6):
            queue.record(*self.make_entry(block))
        queue.drain()
        for block in range(2):
            queue.record(*self.make_entry(block))
        queue.drain()
        assert queue.commits == 2
        assert queue.total_committed == 8
        assert queue.mean_batch_size() == pytest.approx(4.0)

    def test_stale_drops_excluded_from_committed(self):
        # Regression: drain() counts what *left* the queue, but entries
        # the committer drops as stale never reach the algorithm and
        # must not count as committed (they used to, overstating
        # mean_batch_size).
        queue = AccessQueue(8)
        for block in range(4):
            queue.record(*self.make_entry(block))
        queue.drain()
        queue.note_stale()
        assert queue.total_drained == 4
        assert queue.total_stale == 1
        assert queue.total_committed == 3
        assert queue.mean_batch_size() == pytest.approx(3.0)

    def test_note_stale_rejects_negative(self):
        queue = AccessQueue(4)
        queue.record(*self.make_entry(0))
        queue.drain()
        with pytest.raises(ConfigError):
            queue.note_stale(-1)

    def test_note_stale_cannot_exceed_drained(self):
        queue = AccessQueue(4)
        queue.record(*self.make_entry(0))
        queue.drain()
        queue.note_stale()
        with pytest.raises(ConfigError):
            queue.note_stale()


def wrapper_rig(sim, capacity=16, queue_size=4, batch_threshold=2,
                prefetching=False, policy_cls=LRUPolicy,
                handler_cls=BatchedHandler):
    costs = CostModel(user_work_us=1.0, context_switch_us=0.5)
    policy = policy_cls(capacity)
    lock = SimLock(sim, grant_cost_us=costs.lock_grant_us,
                   try_cost_us=costs.try_lock_us)
    cache = MetadataCacheModel(costs)
    control = ControlState(queue_size, batch_threshold, prefetch=prefetching)
    handler = handler_cls(policy, lock, cache, costs, control)
    manager = BufferManager(sim, capacity, policy, handler, costs)
    return manager, policy, lock, handler


class TestBatchedProtocol:
    def test_hits_deferred_until_threshold(self, sim):
        manager, policy, lock, _ = wrapper_rig(sim, batch_threshold=3,
                                               queue_size=8)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)
        order_snapshots = []

        def body():
            for page in pages[:3]:
                yield from manager.access(slot, page)
                order_snapshots.append(
                    (len(slot.queue), lock.stats.acquisitions))

        thread.start(body())
        sim.run()
        # First two hits only recorded; the third triggers TryLock
        # (free lock) and commits all three at once.
        assert order_snapshots[0] == (1, 0)
        assert order_snapshots[1] == (2, 0)
        assert order_snapshots[2] == (0, 1)
        assert slot.queue.total_committed == 3

    def test_commit_preserves_thread_access_order(self, sim):
        manager, policy, _, _ = wrapper_rig(sim, batch_threshold=4,
                                            queue_size=4)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=4)

        def body():
            for page in (pages[5], pages[1], pages[7], pages[2]):
                yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        # After the batch commit, LRU order must reflect the thread's
        # exact access order: 5, 1, 7, 2 most recent last.
        order = list(policy.lru_order())
        assert order[-4:] == [pages[5], pages[1], pages[7], pages[2]]

    def test_miss_commits_queue_first(self, sim):
        manager, policy, lock, _ = wrapper_rig(sim, batch_threshold=8,
                                               queue_size=8, capacity=4)
        resident = [PageId("t", block) for block in range(4)]
        manager.warm_with(resident)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            # Two hits (deferred), then a miss: the miss's Lock() must
            # replay the hits before choosing a victim, so the victim
            # is page 2 (the only non-recent resident).
            yield from manager.access(slot, resident[0])
            yield from manager.access(slot, resident[1])
            yield from manager.access(slot, resident[3])
            yield from manager.access(slot, PageId("t", 99))

        thread.start(body())
        sim.run()
        assert PageId("t", 2) not in policy
        for page in (resident[0], resident[1], resident[3]):
            assert page in policy
        assert slot.queue.total_committed == 3

    def test_stale_entry_dropped_by_tag_check(self, sim):
        manager, policy, _, _ = wrapper_rig(sim, batch_threshold=8,
                                            queue_size=8, capacity=4)
        pages = [PageId("t", block) for block in range(4)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            yield from manager.access(slot, pages[0])   # queued hit
            # Page 0 is invalidated (e.g. table dropped) before commit.
            manager.invalidate(pages[0])
            yield from manager.access(slot, PageId("t", 50))  # miss

        thread.start(body())
        sim.run()
        assert slot.stale_entries == 1
        assert pages[0] not in policy
        # Reconciliation: the slot's stale counter IS the queue's (one
        # source of truth), and the stale drop is excluded from the
        # committed-batch accounting. The miss-path commit drained one
        # entry (the stale hit on page 0) and committed none of it.
        assert slot.stale_entries == slot.queue.total_stale
        assert slot.queue.total_drained == 1
        assert slot.queue.total_committed == 0
        assert slot.queue.mean_batch_size() == 0.0

    def test_queue_full_forces_blocking_lock(self, sim):
        # Hold the lock from another thread so TryLock always fails;
        # the wrapper must block exactly when the queue fills.
        manager, policy, lock, _ = wrapper_rig(sim, batch_threshold=2,
                                               queue_size=4)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 2, 0.0)
        holder = CpuBoundThread(pool, "holder")
        worker = CpuBoundThread(pool, "worker")
        slot = ThreadSlot(worker, 0, queue_size=4)
        queue_depths = []

        def holder_body():
            yield from lock.acquire(holder)
            yield from holder.run_for(100.0)
            lock.release(holder)

        def worker_body():
            yield from worker.run_for(1.0)
            for page in pages[:4]:
                yield from manager.access(slot, page)
                queue_depths.append(len(slot.queue))

        holder.start(holder_body())
        worker.start(worker_body())
        sim.run()
        # Hits 1-2: below/at threshold with failed TryLock -> deferred;
        # hit 3: deferred (queue not full); hit 4: queue full -> Lock()
        # blocks until the holder releases, then commits all four.
        assert queue_depths == [1, 2, 3, 0]
        assert lock.stats.contentions == 1
        assert slot.queue.total_committed == 4
        assert lock.stats.try_failures >= 2

    def test_threshold_equals_queue_size_commits_on_fill(self, sim):
        # Degenerate corner: batch_threshold == queue_size. The
        # threshold check (Fig. 4 line 7) fires exactly when the queue
        # fills, so the TryLock and the queue-full fallback coincide.
        # With a free lock, the fill-point TryLock must commit all
        # entries in one acquisition — no overflow, no deadlock.
        manager, policy, lock, _ = wrapper_rig(sim, batch_threshold=4,
                                               queue_size=4)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=4)
        queue_depths = []

        def body():
            for page in pages[:4]:
                yield from manager.access(slot, page)
                queue_depths.append(len(slot.queue))

        thread.start(body())
        sim.run()
        assert queue_depths == [1, 2, 3, 0]
        assert lock.stats.acquisitions == 1
        assert slot.queue.total_committed == 4
        assert slot.queue.mean_batch_size() == pytest.approx(4.0)

    def test_threshold_equals_queue_size_blocks_when_lock_held(self, sim):
        # Same corner under contention: the fill-point TryLock fails
        # and the queue is already full, so the thread must fall
        # through to the blocking Lock() (Fig. 4 line 13) in the SAME
        # access — deferring again would overflow the queue.
        manager, policy, lock, _ = wrapper_rig(sim, batch_threshold=4,
                                               queue_size=4)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 2, 0.0)
        holder = CpuBoundThread(pool, "holder")
        worker = CpuBoundThread(pool, "worker")
        slot = ThreadSlot(worker, 0, queue_size=4)
        queue_depths = []

        def holder_body():
            yield from lock.acquire(holder)
            yield from holder.run_for(100.0)
            lock.release(holder)

        def worker_body():
            yield from worker.run_for(1.0)
            for page in pages[:4]:
                yield from manager.access(slot, page)
                queue_depths.append(len(slot.queue))

        holder.start(holder_body())
        worker.start(worker_body())
        sim.run()
        assert queue_depths == [1, 2, 3, 0]
        assert lock.stats.try_failures == 1
        assert lock.stats.contentions == 1
        assert slot.queue.total_committed == 4

    def test_batch_size_one_behaves_like_direct(self, sim):
        # queue_size=1, threshold=1: every hit commits immediately.
        manager, policy, lock, _ = wrapper_rig(sim, batch_threshold=1,
                                               queue_size=1)
        pages = [PageId("t", block) for block in range(4)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=1)

        def body():
            for page in pages:
                yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        assert lock.stats.acquisitions == 4
        assert slot.queue.commits == 4
        assert list(policy.lru_order()) == pages


class TestDirectAndLockFree:
    def test_direct_acquires_per_hit(self, sim):
        costs = CostModel(user_work_us=1.0)
        policy = LRUPolicy(8)
        lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        cache = MetadataCacheModel(costs)
        handler = DirectHandler(policy, lock, cache, costs,
                                ControlState(64, 32, prefetch=False))
        manager = BufferManager(sim, 8, policy, handler, costs)
        pages = [PageId("t", block) for block in range(5)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=64)

        def body():
            for page in pages:
                yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        assert lock.stats.acquisitions == 5

    def test_lock_free_hits_never_touch_lock(self, sim):
        costs = CostModel(user_work_us=1.0)
        policy = ClockPolicy(8)
        lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        cache = MetadataCacheModel(costs)
        handler = LockFreeHitHandler(policy, lock, cache, costs,
                                     ControlState(64, 32, prefetch=False))
        manager = BufferManager(sim, 8, policy, handler, costs)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=64)

        def body():
            for _ in range(3):
                for page in pages:
                    yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        assert lock.stats.acquisitions == 0
        assert lock.stats.requests == 0
        # The hits still updated the policy (reference bits set).
        assert all(policy.reference_bit(page) for page in pages)

    def test_lock_free_misses_do_lock(self, sim):
        costs = CostModel(user_work_us=1.0)
        policy = ClockPolicy(4)
        lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        cache = MetadataCacheModel(costs)
        handler = LockFreeHitHandler(policy, lock, cache, costs,
                                     ControlState(64, 32, prefetch=False))
        manager = BufferManager(sim, 4, policy, handler, costs)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=64)

        def body():
            for block in range(6):
                yield from manager.access(slot, PageId("t", block))

        thread.start(body())
        sim.run()
        assert lock.stats.acquisitions == 6


class TestHitContract:
    """``hit`` returns an iterable for ``yield from``; a hit that cannot
    block is no generator at all (one frame per buffer hit)."""

    def one_page(self, sim, manager, queue_size):
        page = PageId("t", 0)
        manager.warm_with([page])
        pool = ProcessorPool(sim, 1, 0.0)
        slot = ThreadSlot(CpuBoundThread(pool), 0, queue_size=queue_size)
        return slot, manager.lookup(page), page

    @pytest.mark.parametrize("handler_cls",
                             [BatchedHandler, LossyBatchedHandler])
    def test_batched_below_threshold_is_not_a_generator(self, sim,
                                                        handler_cls):
        manager, _, lock, handler = wrapper_rig(
            sim, queue_size=4, batch_threshold=3, handler_cls=handler_cls)
        slot, desc, page = self.one_page(sim, manager, 4)
        for depth in (1, 2):
            waits = handler.hit(slot, desc, page)
            assert not inspect.isgenerator(waits)
            assert list(waits) == []
            assert len(slot.queue) == depth
        assert lock.stats.requests == lock.stats.try_attempts == 0

    def test_batched_at_threshold_still_commits(self, sim):
        manager, policy, lock, handler = wrapper_rig(
            sim, queue_size=4, batch_threshold=3)
        slot, desc, page = self.one_page(sim, manager, 4)
        kinds = []

        def body():
            for _ in range(3):
                # Pinned as the request pins it: a continuation owns
                # the request's pin and drops it when it returns.
                desc.pin()
                waits = handler.hit(slot, desc, page)
                kinds.append(inspect.isgenerator(waits))
                if waits:
                    assert (yield from waits) is True
                else:
                    desc.unpin()

        slot.thread.start(body())
        sim.run()
        assert kinds == [False, False, True]
        assert desc.pin_count == 0
        assert lock.stats.acquisitions == 1
        assert len(slot.queue) == 0
        assert slot.queue.total_committed == 3

    def test_batched_hit_into_full_queue_raises_before_charging(self, sim):
        manager, _, _, handler = wrapper_rig(
            sim, queue_size=2, batch_threshold=2)
        slot, desc, page = self.one_page(sim, manager, 2)
        slot.queue.record(desc, page)
        slot.queue.record(desc, page)
        pending = slot.thread.pending_us
        with pytest.raises(ConfigError, match="overflow"):
            handler.hit(slot, desc, page)
        assert len(slot.queue) == 2
        assert slot.thread.pending_us == pending

    def test_lock_free_hit_is_not_a_generator(self, sim):
        costs = CostModel(user_work_us=1.0)
        policy = ClockPolicy(8)
        lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        handler = LockFreeHitHandler(policy, lock, MetadataCacheModel(costs),
                                     costs,
                                     ControlState(64, 32, prefetch=False))
        manager = BufferManager(sim, 8, policy, handler, costs)
        slot, desc, page = self.one_page(sim, manager, 64)
        served = []

        def body():
            # Alone on the simulator, the hit's charge is realized in
            # place: there is nothing to wait for.
            served.append(handler.hit(slot, desc, page))
            yield from ()

        slot.thread.start(body())
        sim.run()
        assert served == [()]
        assert policy.reference_bit(page)
        assert lock.stats.requests == 0
        # Outside a run the charge is a delay for the engine: the hit
        # returns the request's continuation, which drops its pin.
        desc.pin()
        waits = handler.hit(slot, desc, page)
        assert inspect.isgenerator(waits)
        assert next(waits) == pytest.approx(costs.ref_bit_us)
        with pytest.raises(StopIteration) as served:
            next(waits)
        assert served.value.value is True
        assert desc.pin_count == 0 and lock.stats.requests == 0


class TestModelledDirectHit:
    """On the simulator, pg2Q's hit is the request's continuation: it
    waits for the lock, commits its one entry in its own frame and
    finishes the request. Its stale-entry branch and its abort are
    reached only across that lock wait."""

    @staticmethod
    def rig(sim):
        """A pg2Q pool whose 2Q holds pages 0-3 in Am (LRU first), a
        holder that keeps the lock from 0 to 100 µs, and a reader slot
        whose request for page 0 parks on it at 5 µs."""
        build = build_system("pg2Q", sim, 8, ALTIX_350)
        pages = [PageId("t", block) for block in range(12)]
        build.manager.warm_with(pages)       # 0-3 leave for A1out
        build.manager.warm_with(pages[:4])   # and come back into Am
        pool = ProcessorPool(sim, 2, context_switch_us=0.5)
        holder, reader = (
            build.handler.new_slot(CpuBoundThread(pool, name=name), index)
            for index, name in enumerate(("holder", "reader")))
        lock = build.lock

        def hold():
            yield from lock.acquire(holder.thread)
            yield from holder.thread.sleep_blocked(100.0)
            lock.release(holder.thread)

        outcomes = []

        def read():
            yield from reader.thread.sleep_blocked(5.0)
            served = build.manager.request(reader, pages[0])
            assert inspect.isgenerator(served)
            outcomes.append((yield from served))

        body = read()
        holder.thread.start(hold())
        reader.thread.start(body)
        return build, reader, pages[0], body, outcomes

    @staticmethod
    def order(policy):
        return (policy.a1in_keys, policy.a1out_keys, policy.am_keys)

    @pytest.mark.parametrize("retag", [False, True],
                             ids=["live", "stale"])
    def test_entry_is_tag_checked_at_the_grant(self, sim, at, retag):
        sim.checker = checker = CorrectnessChecker()
        build, reader, page, _, outcomes = self.rig(sim)
        policy, queue = build.manager.policy, reader.queue
        desc = build.manager.lookup(page)
        before = self.order(policy)
        if retag:
            at(sim, 50.0, lambda: desc.retag(PageId("t", 99)))
        sim.run(until=60.0)
        assert build.lock.queue_length == 1 and desc.pin_count == 1
        sim.run()
        assert outcomes == [True]
        assert (queue.commits, queue.total_drained, queue.total_stale,
                len(queue)) == (1, 1, int(retag), 0)
        if retag:
            assert self.order(policy) == before
        else:
            assert policy.am_keys[-1] == page != before[2][-1]
        assert desc.pin_count == 0 and not build.lock.held
        assert (checker.commit_checks, checker.invariant_checks) == (1, 1)
        checker.finalize()

    def test_hit_closed_in_the_lock_wait_leaves_no_trace(self, sim):
        build, reader, page, body, outcomes = self.rig(sim)
        lock, queue = build.lock, reader.queue
        before = self.order(build.manager.policy)
        sim.run(until=50.0)
        assert lock.queue_length == 1
        assert build.manager.lookup(page).pin_count == 1
        body.close()
        assert lock.queue_length == 0
        build.manager.check_invariants(expect_no_pins=True)
        sim.run()
        assert outcomes == [] and not lock.held
        assert (queue.commits, queue.total_drained, queue.total_stale,
                len(queue)) == (0, 0, 0, 0)
        assert self.order(build.manager.policy) == before
        build.manager.check_invariants(expect_no_pins=True)


class TestPlainDirectHit:
    """On a runtime that realizes no costs, pg2Q's hit is one plain
    call: lock, tag check, policy op, unlock."""

    def pool(self, system="pg2Q"):
        """A native pool whose 2Q holds pages 0-3 in Am (LRU first),
        and a slot on a native thread."""
        runtime = NativeRuntime()
        build = build_system(system, runtime, 8, ALTIX_350)
        pages = [PageId("t", block) for block in range(12)]
        build.manager.warm_with(pages)       # 0-3 leave for A1out
        build.manager.warm_with(pages[:4])   # and come back into Am
        thread = runtime.create_thread(runtime.create_pool(1), seed=0)
        return build, ThreadSlot(thread, 0, queue_size=64), pages

    @staticmethod
    def order(policy):
        return (policy.a1in_keys, policy.a1out_keys,
                policy.am_keys)

    def test_chosen_only_where_costs_are_not_realized(self):
        build, _, _ = self.pool()
        assert type(build.handler) is PlainDirectHandler
        sim_build = build_system("pg2Q", Simulator(), 8, ALTIX_350)
        assert type(sim_build.handler) is DirectHandler

    def test_live_hit_reaches_the_policy_as_one_commit(self):
        build, slot, pages = self.pool()
        handler, lock, queue = build.handler, build.lock, slot.queue
        page = pages[0]
        assert build.manager.policy.am_keys[0] == page
        assert handler.hit(slot, build.manager.lookup(page), page) == ()
        assert build.manager.policy.am_keys[-1] == page
        assert (queue.commits, queue.total_drained, queue.total_stale) \
            == (1, 1, 0)
        assert lock.owner is None and not lock.held
        assert (lock.stats.requests, lock.stats.acquisitions) == (1, 1)

    def test_stale_tag_is_counted_and_never_reaches_the_policy(self):
        build, slot, pages = self.pool()
        handler, lock, queue = build.handler, build.lock, slot.queue
        page = pages[0]
        desc = build.manager.lookup(page)
        desc.retag(PageId("t", 99))
        before = self.order(build.manager.policy)
        waits = handler.hit(slot, desc, page)
        assert waits == () and not inspect.isgenerator(waits)
        assert self.order(build.manager.policy) == before
        assert (queue.commits, queue.total_drained, queue.total_stale) \
            == (1, 1, 1)
        assert lock.owner is None and not lock.held

    def test_prefetching_pool_takes_the_modelled_hit(self):
        build, slot, pages = self.pool("pgPre")
        drive(build.manager.access(slot, pages[0]))
        assert build.handler.cache.prefetches_issued == 1

    def test_live_prefetch_flip_takes_the_modelled_hit(self):
        build, slot, pages = self.pool()
        drive(build.manager.access(slot, pages[0]))
        assert build.handler.cache.prefetches_issued == 0
        build.control.prefetch = True
        drive(build.manager.access(slot, pages[1]))
        assert build.handler.cache.prefetches_issued >= 1
        assert slot.queue.commits == 2

    def test_native_pgpre_run_issues_prefetches(self):
        result = run_experiment(ExperimentConfig(
            system="pgPre", workload="tablescan",
            workload_kwargs={"n_tables": 2, "pages_per_table": 50},
            runtime="native", n_processors=1, n_threads=1,
            target_accesses=500, warmup_fraction=0.0, seed=42))
        assert result.prefetches_issued >= 1


class TestPrefetching:
    def test_prefetch_issued_before_lock(self, sim):
        manager, policy, lock, handler = wrapper_rig(
            sim, batch_threshold=2, queue_size=4, prefetching=True)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=4)

        def body():
            for page in pages[:4]:
                yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        cache = handler.cache
        assert cache.prefetches_issued >= 1
        assert cache.prefetches_valid_at_use >= 1


class TestSharedQueueStats:
    def test_merged_stats_include_record_lock(self, tiny_machine):
        from repro.harness.systems import build_system
        sim = Simulator()
        build = build_system("pgBatShared", sim, 64, tiny_machine)
        replacement_lock, record_lock = build.handler.locks
        assert replacement_lock is build.lock
        record_lock.stats.requests = 7
        build.lock.stats.requests = 3
        assert build.handler.lock_stats().requests == 10


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


class TestBatchCommitExactness:
    """``_commit_locked`` handles a batch whole — one pass that finds
    the live entries and folds their costs, one ``on_hits`` — and must
    charge, replay and count exactly what committing entry by entry
    did."""

    @pytest.fixture(params=["pg2Q", "pgBat", "pgBatShared"])
    def build(self, request, sim, tiny_machine):
        from repro.harness.systems import build_system
        return build_system(request.param, sim, 16, tiny_machine,
                            queue_size=8, batch_threshold=8)

    def test_mixed_batch_charges_replays_and_counts_exactly(self, sim,
                                                           build):
        manager, handler = build.manager, build.handler
        pages = [PageId("t", block) for block in range(10)]
        manager.warm_with(pages)
        descs = {page: manager.lookup(page) for page in pages}
        recorded = [pages[1], pages[4], pages[2], pages[5], pages[1],
                    pages[3], pages[4]]
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))
        slot = handler.new_slot(thread, 0)
        queue = handler.queues([slot])[0]
        for page in recorded:
            queue.record(descs[page], page)
        # Page 4 is invalidated; page 5's frame is retagged to page 50.
        manager.invalidate(pages[4])
        manager.invalidate(pages[5])
        manager.warm_with([PageId("t", 50)])
        assert descs[pages[5]].tag == PageId("t", 50)
        live = [page for page in recorded if page not in (pages[4],
                                                          pages[5])]
        seen = []
        on_hits = handler.policy.on_hits

        def spy(keys):
            seen.extend(keys)
            on_hits(keys)

        handler.policy.on_hits = spy
        thread.charge(0.1)
        assert handler.lock.try_acquire(thread)
        expected = thread.pending_us
        for page in recorded:
            expected += handler.costs.tag_check_us
            if page in live:
                expected += handler.costs.replacement_op_us
        if queue is slot.queue:
            handler._commit_locked(slot)
        else:
            handler._commit_locked(slot, queue, queue.drain())
        assert thread.pending_us == expected
        assert seen == live
        assert queue.total_stale == 3
        assert queue.total_committed == len(live)
        assert len(queue) == 0
