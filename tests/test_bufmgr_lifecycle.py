"""Pinned-frame lifecycle: stale hits, aborted installs, invalidation.

These are the regression tests for the three lifecycle fixes that ride
with the query-execution tier:

* a probe hit whose frame is retagged/invalidated while the thread
  sleeps on ``io_done`` must be retried as a miss (not reported as a
  hit of the wrong page);
* a thread aborted mid-access (generator close — the native
  join-deadline abort and failure injection both do this) must not
  leak its pin, and a mid-flight install must be backed out;
* ``invalidate`` on a resident-but-invalid frame must fire the
  orphaned ``io_done`` so concurrent waiters wake and retry instead of
  sleeping forever.

The sim tests construct the racing interleavings exactly (interloper
processes mutate between the victim thread's yields); the native test
replays the same scenario on a real OS thread.
"""

from __future__ import annotations

import gc
import inspect
import time
import weakref

import pytest

from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.check.checker import CorrectnessChecker
from repro.control.state import ControlState
from repro.core.bpwrapper import DirectHandler, ThreadSlot
from repro.db.storage import DiskArray
from repro.errors import BufferError_, ConfigError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.hardware.machines import ALTIX_350
from repro.harness.systems import build_system
from repro.policies.lru import LRUPolicy
from repro.runtime.native import NativeRuntime
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock

P = PageId("t", 1)
Q = PageId("t", 2)

#: The two ways in: the generator adapter, and the plain-call request
#: with the continuation it returns when it may wait.
ENTRIES = ["access", "request"]


def build_rig(sim, capacity=8, disk=None):
    costs = CostModel(user_work_us=1.0, context_switch_us=0.5)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=costs.lock_grant_us,
                   try_cost_us=costs.try_lock_us)
    handler = DirectHandler(policy, lock, MetadataCacheModel(costs), costs,
                            ControlState(64, 32, prefetch=False))
    manager = BufferManager(sim, capacity, policy, handler, costs, disk=disk)
    return manager, lock


def make_thread(sim, index=0, n_cpus=2, pool=None):
    pool = pool or ProcessorPool(sim, n_cpus, context_switch_us=0.5)
    thread = CpuBoundThread(pool, name=f"t{index}")
    return ThreadSlot(thread, index, queue_size=64), pool


def frames_accounted(manager):
    """Every frame is resident, free, or legitimately mid-install."""
    return manager.resident_count + len(manager._free) == manager.capacity


def fetch(manager, slot, page, entry, continuations):
    """One request for ``page`` through ``entry``: the generator
    ``access``, or the plain-call ``request`` and the continuation it
    hands back (recorded in ``continuations``)."""
    if entry == "access":
        return (yield from manager.access(slot, page))
    served = manager.request(slot, page)
    if served is True:
        return served
    assert inspect.isgenerator(served)
    continuations.append(served)
    return (yield from served)


def park_on_io(manager, page):
    """Make ``page`` resident-but-invalid with a pending read event."""
    desc = manager.lookup(page)
    desc.valid = False
    desc.io_done = manager.sim.event()
    return desc


class TestStaleHitRetry:
    @pytest.mark.parametrize("is_write", [False, True])
    def test_retagged_frame_retried_as_miss(self, sim, is_write):
        """The frame is reused for another page while the reader sleeps.

        This is the interleaving the native backend allows between a
        reader's probe and its io_done wakeup; pre-fix, ``access``
        reported a hit of page P while the frame actually held Q and P
        was never installed at all.
        """
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        desc = park_on_io(manager, P)
        slot, _ = make_thread(sim)
        outcomes = []

        def reader():
            hit = yield from manager.access(slot, P, is_write=is_write)
            outcomes.append(hit)

        def interloper():
            # Let the reader pin the frame and park, then reuse the
            # frame for Q — eviction + reinstall compressed into one
            # atomic block.
            yield 50.0
            assert desc.pin_count == 1  # the reader parked with its pin
            manager.table.remove(P)
            manager.policy.on_remove(P)
            assert manager.policy.on_miss(Q) is None
            desc.retag(Q)
            desc.valid = True
            manager.table.insert(Q, desc)
            io_done, desc.io_done = desc.io_done, None
            io_done.succeed()

        slot.thread.start(reader())
        sim.spawn(interloper(), name="interloper")
        sim.run()

        assert outcomes == [False]
        stats = manager.stats
        assert (stats.accesses, stats.hits, stats.misses) == (1, 0, 1)
        assert stats.stale_hit_retries == 1
        served = manager.lookup(P)
        assert served is not None and served is not desc
        assert served.valid and served.dirty == is_write
        assert desc.matches(Q)
        manager.check_invariants(expect_no_pins=True)

    def test_invalidated_frame_retried_as_miss(self, sim):
        """The waited-on install aborts; the reader must re-install P."""
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        desc = park_on_io(manager, P)
        slot, _ = make_thread(sim)
        outcomes = []

        def reader():
            hit = yield from manager.access(slot, P)
            outcomes.append(hit)

        def interloper():
            yield 50.0
            # Back the install out underneath the parked reader, as
            # _abort_install does when the installer dies.
            manager.table.remove(P)
            manager.policy.on_remove(P)
            desc.tag = None
            desc.valid = False
            desc.generation += 1
            io_done, desc.io_done = desc.io_done, None
            io_done.succeed()

        slot.thread.start(reader())
        sim.spawn(interloper(), name="interloper")
        sim.run()

        assert outcomes == [False]
        assert manager.stats.stale_hit_retries == 1
        # The reader's unpin reclaimed the orphaned frame into the free
        # list, and its own retry recycled it for the fresh install.
        served = manager.lookup(P)
        assert served is desc and served.valid
        assert frames_accounted(manager)
        manager.check_invariants(expect_no_pins=True)

    def test_native_stale_hit_retried_as_miss(self):
        """Same race on a real OS thread: retag during the event wait."""
        runtime = NativeRuntime()
        build = build_system("pg2Q", runtime, 8, ALTIX_350,
                             queue_size=8, batch_threshold=4)
        manager = build.manager
        manager.warm_with([P])
        desc = manager.lookup(P)
        desc.valid = False
        desc.io_done = runtime.event()
        pool = runtime.create_pool(2)
        thread = runtime.create_thread(pool, name="reader", seed=0)
        slot = ThreadSlot(thread, 0, queue_size=8)
        outcomes = []

        def reader():
            hit = yield from manager.access(slot, P)
            outcomes.append(hit)
            yield from build.handler.flush(slot)

        thread.start(reader())
        deadline = time.monotonic() + 5.0
        while desc.pin_count == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert desc.pin_count == 1  # reader pinned, parked (or parking)
        manager.table.remove(P)
        manager.policy.on_remove(P)
        manager.policy.on_miss(Q)
        desc.retag(Q)
        desc.valid = True
        manager.table.insert(Q, desc)
        io_done, desc.io_done = desc.io_done, None
        io_done.succeed()

        assert thread.join(5.0)
        assert thread.error is None
        assert outcomes == [False]
        assert manager.stats.stale_hit_retries == 1
        assert manager.lookup(P) is not None
        manager.check_invariants(expect_no_pins=True)


class TestAbortedAccess:
    def test_aborted_miss_backs_out_install(self, sim):
        """Close the reader mid-disk-read: no pin leak, no placeholder."""
        disk = DiskArray(sim, service_time_us=400.0, concurrency=4)
        manager, _ = build_rig(sim, disk=disk)
        slot, _ = make_thread(sim)

        def reader():
            yield from manager.access(slot, P)
            raise AssertionError("the aborted access must not complete")

        body = reader()
        slot.thread.start(body)
        sim.run(until=100.0)  # parked in the 400us disk read
        assert manager.lookup(P) is not None  # placeholder installed
        body.close()

        assert manager.lookup(P) is None
        assert frames_accounted(manager)
        manager.check_invariants(expect_no_pins=True)
        sim.run()
        manager.check_invariants(expect_no_pins=True)

    def test_aborted_install_wakes_waiter_which_reinstalls(self, sim):
        """A second reader parked on the dying install retries as a miss."""
        disk = DiskArray(sim, service_time_us=400.0, concurrency=4)
        manager, _ = build_rig(sim, disk=disk)
        pool = ProcessorPool(sim, 2, context_switch_us=0.5)
        slot_a, _ = make_thread(sim, 0, pool=pool)
        slot_b, _ = make_thread(sim, 1, pool=pool)
        outcomes = []

        def installer():
            yield from manager.access(slot_a, P)
            raise AssertionError("the aborted install must not complete")

        def waiter():
            yield from slot_b.thread.sleep_blocked(50.0)
            hit = yield from manager.access(slot_b, P)
            outcomes.append(hit)

        body_a = installer()
        slot_a.thread.start(body_a)
        slot_b.thread.start(waiter())
        sim.run(until=100.0)  # A mid-read, B parked on A's io_done
        body_a.close()
        sim.run()

        assert outcomes == [False]
        assert manager.stats.stale_hit_retries == 1
        served = manager.lookup(P)
        assert served is not None and served.valid
        assert frames_accounted(manager)
        manager.check_invariants(expect_no_pins=True)

    def test_aborted_hit_wait_releases_pin(self):
        """Close a reader parked on io_done: its hit-path pin unwinds,
        whether the reader went through ``access`` or is driving the
        continuation ``request`` handed it."""
        for entry in ENTRIES:
            sim = Simulator()
            manager, _ = build_rig(sim)
            manager.warm_with([P])
            desc = park_on_io(manager, P)
            slot, _ = make_thread(sim)
            continuations = []

            def reader():
                yield from fetch(manager, slot, P, entry, continuations)
                raise AssertionError("the aborted access must not complete")

            body = reader()
            slot.thread.start(body)
            sim.run(until=50.0)
            assert desc.pin_count == 1
            body.close()
            assert desc.pin_count == 0, entry
            assert len(continuations) == (entry == "request")
            assert all(inspect.getgeneratorstate(continuation)
                       == inspect.GEN_CLOSED
                       for continuation in continuations)
            manager.check_invariants(expect_no_pins=True)

    @pytest.mark.parametrize("system, before, entry", [
        ("pg2Q", [], "access"), ("pgBat", [Q], "access"),
        ("pg2Q", [], "request"), ("pgBat", [Q], "request")],
        ids=["pg2Q", "pgBat", "pg2Q-request", "pgBat-request"])
    def test_aborted_hit_parked_in_handler_releases_pin(self, sim, system,
                                                        before, entry):
        """Close a reader parked inside ``handler.hit`` on a replacement
        lock another thread holds: pg2Q's per-hit ``Lock()``, and
        pgBat's Fig. 4 line 13 (a full queue behind a failed TryLock).
        The hit's pin is held by the request's continuation, so it must
        unwind through the handler's suspension point too."""
        build = build_system(system, sim, 8, ALTIX_350, queue_size=2,
                             batch_threshold=2)
        manager, lock = build.manager, build.lock
        manager.warm_with([P, Q])
        pool = ProcessorPool(sim, 2, context_switch_us=0.5)
        holder_slot = build.handler.new_slot(
            CpuBoundThread(pool, name="holder"), 0)
        reader_slot = build.handler.new_slot(
            CpuBoundThread(pool, name="reader"), 1)

        def holder():
            yield from lock.acquire(holder_slot.thread)
            yield from holder_slot.thread.sleep_blocked(100.0)
            lock.release(holder_slot.thread)

        continuations = []

        def reader():
            yield from reader_slot.thread.sleep_blocked(5.0)
            # pgBat: Q's hit only records; P's fills the queue.
            for page in before + [P]:
                yield from fetch(manager, reader_slot, page, entry,
                                 continuations)
            raise AssertionError("the aborted access must not complete")

        body = reader()
        holder_slot.thread.start(holder())
        reader_slot.thread.start(body)
        sim.run(until=50.0)
        desc = manager.lookup(P)
        assert desc.pin_count == 1
        assert lock.queue_length == 1  # parked on the held lock
        body.close()
        assert desc.pin_count == 0
        # Q's recording hit was served inline; only P's waited.
        assert len(continuations) == (entry == "request")
        assert all(inspect.getgeneratorstate(continuation)
                   == inspect.GEN_CLOSED for continuation in continuations)
        manager.check_invariants(expect_no_pins=True)
        sim.run()
        assert not lock.held
        manager.check_invariants(expect_no_pins=True)

    def test_aborted_lock_waiter_leaves_queue_consistent(self, sim):
        """Close a reader parked in ``SimLock``'s contended path with a
        live reader queued behind it, under the lock monitor. The dead
        waiter's queue entry goes with it, so the holder's release wakes
        the live reader (no lost wakeup) and the end-of-run sweep is
        clean."""
        checker = CorrectnessChecker()
        sim.checker = checker
        build = build_system("pg2Q", sim, 8, ALTIX_350)
        manager, lock = build.manager, build.lock
        manager.warm_with([P])
        pool = ProcessorPool(sim, 3, context_switch_us=0.5)
        slots = [build.handler.new_slot(CpuBoundThread(pool, name=name),
                                        index)
                 for index, name in enumerate(("holder", "dead", "live"))]
        outcomes = []

        def holder():
            yield from lock.acquire(slots[0].thread)
            yield from slots[0].thread.sleep_blocked(100.0)
            lock.release(slots[0].thread)

        def reader(slot, delay):
            yield from slot.thread.sleep_blocked(delay)
            outcomes.append((yield from manager.access(slot, P)))

        dead = reader(slots[1], 5.0)
        slots[0].thread.start(holder())
        slots[1].thread.start(dead)
        slots[2].thread.start(reader(slots[2], 10.0))
        sim.run(until=50.0)
        assert lock.queue_length == 2
        dead.close()
        assert lock.queue_length == 1
        sim.run()
        assert outcomes == [True]
        assert not lock.held and lock.queue_length == 0
        assert pool.free_processors == 3 and pool.ready_count == 0
        checker.finalize()
        manager.check_invariants(expect_no_pins=True)

    def test_aborted_absorbed_miss_retries(self, sim):
        """The absorbed-miss wait also re-checks the tag after waking.

        B misses while H holds the replacement lock; by the time B gets
        the lock, an installer's placeholder for P is in the table, so
        B absorbs the miss and parks on its io_done. The install is
        then backed out: B must retry (and re-install P itself), not
        return the dead frame.
        """
        manager, lock = build_rig(sim)
        pool = ProcessorPool(sim, 2, context_switch_us=0.5)
        slot_h, _ = make_thread(sim, 0, pool=pool)
        slot_b, _ = make_thread(sim, 1, pool=pool)
        outcomes = []
        placeholder = []

        def holder():
            yield from lock.acquire(slot_h.thread)
            yield from slot_h.thread.sleep_blocked(100.0)
            lock.release(slot_h.thread)

        def reader():
            yield from slot_b.thread.sleep_blocked(5.0)
            hit = yield from manager.access(slot_b, P, is_write=True)
            outcomes.append(hit)

        def interloper():
            # While B queues on the lock, install a placeholder for P
            # exactly as _serve_miss leaves one mid-read...
            yield 50.0
            assert manager.policy.on_miss(P) is None
            desc = manager._take_frame(None)
            desc.retag(P)
            desc.pin()
            desc.io_done = sim.event()
            manager.table.insert(P, desc)
            placeholder.append(desc)
            # ... then, once B has absorbed the miss and parked on the
            # io_done, abort the install.
            yield 100.0
            assert desc.pin_count == 2  # installer + absorbed reader
            manager._abort_install(desc)

        slot_h.thread.start(holder())
        slot_b.thread.start(reader())
        sim.spawn(interloper(), name="interloper")
        sim.run()

        assert outcomes == [False]
        stats = manager.stats
        assert stats.stale_hit_retries == 1
        assert stats.absorbed_misses == 0  # undone when the absorb died
        assert (stats.hits, stats.misses) == (0, 1)
        served = manager.lookup(P)
        assert served is not None and served.valid and served.dirty
        # The dead placeholder's frame was reclaimed into the free list
        # and recycled by B's retry.
        assert served is placeholder[0]
        assert frames_accounted(manager)
        manager.check_invariants(expect_no_pins=True)


class TestInvalidate:
    def test_invalidate_clears_orphaned_io_done(self, sim):
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        desc = park_on_io(manager, P)
        event = desc.io_done
        assert manager.invalidate(P)
        assert desc.io_done is None
        assert event.triggered
        assert desc.tag is None and not desc.valid
        assert frames_accounted(manager)

    def test_invalidate_wakes_concurrent_reader(self, sim):
        """A reader parked on the orphaned io_done must not sleep forever.

        The reader models the native window between looking the frame
        up and re-checking it: it holds a reference to the event but no
        pin, so ``invalidate`` (which rejects pinned frames) can run
        underneath it. Pre-fix the event never fired and the reader
        deadlocked; post-fix it wakes and re-installs P as a miss.
        """
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        desc = park_on_io(manager, P)
        event = desc.io_done
        slot, _ = make_thread(sim)
        outcomes = []

        def reader():
            yield from slot.thread.wait(event)
            hit = yield from manager.access(slot, P)
            outcomes.append(hit)

        def interloper():
            yield 50.0
            assert manager.invalidate(P)

        slot.thread.start(reader())
        sim.spawn(interloper(), name="interloper")
        sim.run()

        assert outcomes == [False]  # woke, retried, installed
        assert manager.lookup(P) is not None
        assert frames_accounted(manager)
        manager.check_invariants(expect_no_pins=True)

    def test_invalidate_pinned_still_raises(self, sim):
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        desc = manager.lookup(P)
        desc.pin()
        with pytest.raises(BufferError_):
            manager.invalidate(P)
        desc.unpin()

    def test_residual_pin_sweep_is_opt_in(self, sim):
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        desc = manager.lookup(P)
        desc.pin()
        manager.check_invariants()  # pins allowed by default
        with pytest.raises(BufferError_, match="residual pins"):
            manager.check_invariants(expect_no_pins=True)
        desc.unpin()
        manager.check_invariants(expect_no_pins=True)

    @pytest.mark.parametrize("runtime", ["sim", "native"])
    def test_unmatched_unpin_raises_and_leaves_pool_sound(self, sim,
                                                         runtime):
        """An unpin without a pin is refused, and refusing it leaves the
        count at zero: the pin list cannot hold a negative count."""
        runtime = sim if runtime == "sim" else NativeRuntime()
        manager = build_system("pg2Q", runtime, 8, ALTIX_350,
                               queue_size=8, batch_threshold=4).manager
        runtime.prepare(manager)
        manager.warm_with([P])
        desc = manager.lookup(P)
        desc.pin()
        manager.release(desc)
        with pytest.raises(BufferError_, match="without matching pin"):
            manager.release(desc)
        assert desc.pin_count == 0
        manager.check_invariants(expect_no_pins=True)


class TestRequestSplit:
    """A hit that cannot wait is served by the plain-call request; a
    raise from the handler on that inline path still drops the pin."""

    @staticmethod
    def rig(runtime, system):
        runtime = runtime()
        build = build_system(system, runtime, 8, ALTIX_350, queue_size=4,
                             batch_threshold=4)
        runtime.prepare(build.manager)
        build.manager.warm_with([P, Q])
        thread = runtime.create_thread(runtime.create_pool(1),
                                       name="reader")
        return runtime, build.manager, build.handler.new_slot(thread, 0)

    @pytest.mark.parametrize("runtime", [Simulator, NativeRuntime],
                             ids=["sim", "native"])
    @pytest.mark.parametrize("system", ["pgclock", "pgBatPre"])
    def test_inline_hit_returns_true_not_a_generator(self, runtime,
                                                     system):
        """pgclock's hit, and pgBatPre's below its threshold."""
        runtime, manager, slot = self.rig(runtime, system)
        outcomes = []

        def reader():
            served = manager.request(slot, P, is_write=True)
            outcomes.append(served)
            if inspect.isgenerator(served):
                yield from served

        slot.thread.start(reader())
        if isinstance(runtime, Simulator):
            runtime.run()
        else:
            assert slot.thread.join(5.0)
            assert slot.thread.error is None
        assert outcomes == [True]
        desc = manager.lookup(P)
        assert desc.dirty and desc.pin_count == 0
        assert manager.stats.hits == manager.stats.accesses == 1
        manager.check_invariants(expect_no_pins=True)

    @pytest.mark.parametrize("runtime", [Simulator, NativeRuntime],
                             ids=["sim", "native"])
    def test_handler_raise_on_the_inline_path_drops_the_pin(self,
                                                           runtime):
        """A batched queue overflow raised through the manager."""
        runtime, manager, slot = self.rig(runtime, "pgBatPre")
        other = manager.lookup(Q)
        for _ in range(slot.queue.capacity):
            slot.queue.record(other, Q)
        with pytest.raises(ConfigError, match="overflow"):
            manager.request(slot, P)
        assert manager.lookup(P).pin_count == 0
        manager.check_invariants(expect_no_pins=True)


class TestIoDoneWaiters:
    def test_waiters_resume_in_park_order(self, sim, at):
        """Threads parked on one ``io_done`` resume at the time it
        fires, in the order they parked (not the order they started)."""
        manager, _ = build_rig(sim)
        manager.warm_with([P])
        event = park_on_io(manager, P).io_done
        pool = ProcessorPool(sim, 3, context_switch_us=0.0)
        woke = []

        def reader(thread, delay):
            yield from thread.sleep_blocked(delay)
            yield from thread.wait(event)
            woke.append((thread.name, sim.now))

        for name, delay in (("r0", 20.0), ("r1", 30.0), ("r2", 10.0)):
            thread = CpuBoundThread(pool, name)
            thread.start(reader(thread, delay))
        at(sim, 50.0, lambda: manager.invalidate(P))
        sim.run()
        assert event.triggered
        assert woke == [("r2", 50.0), ("r0", 50.0), ("r1", 50.0)]


@pytest.mark.parametrize("runtime", [Simulator, NativeRuntime],
                         ids=["sim", "native"])
def test_dropped_pool_is_freed_without_the_collector(runtime):
    """The policy's victim filter used to be the manager's bound method,
    so every pool was a reference cycle that only a full garbage
    collection freed."""
    build = build_system("pgBatPre", runtime(), 1000, ALTIX_350)
    build.manager.warm_with([PageId("t", block) for block in range(1000)])
    manager = weakref.ref(build.manager)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del build
        assert manager() is None
    finally:
        if enabled:
            gc.enable()
