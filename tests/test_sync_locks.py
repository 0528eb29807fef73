"""Tests for the simulated lock (Mesa semantics, TryLock, statistics)."""

from __future__ import annotations

import inspect

import pytest

from repro.check.checker import CorrectnessChecker
from repro.errors import ConfigError, LockError
from repro.runtime.native import NativeRuntime
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock
from repro.sync.stats import LockStats


def setup(sim, n_cpus=4, ctx=0.0, grant=0.0):
    pool = ProcessorPool(sim, n_cpus, context_switch_us=ctx)
    lock = SimLock(sim, grant_cost_us=grant, try_cost_us=0.0)
    return pool, lock


class TestUncontended:
    def test_acquire_release(self, sim):
        pool, lock = setup(sim)
        thread = CpuBoundThread(pool)

        def body():
            yield from lock.acquire(thread)
            assert lock.held
            assert lock.owner is thread
            yield from thread.run_for(2.0)
            lock.release(thread)
            assert not lock.held

        thread.start(body())
        sim.run()
        assert lock.stats.contentions == 0
        assert lock.stats.acquisitions == 1
        assert lock.stats.total_hold_us == pytest.approx(2.0)

    def test_reacquire_while_owner_raises(self, sim):
        pool, lock = setup(sim)
        thread = CpuBoundThread(pool)

        def body():
            yield from lock.acquire(thread)
            yield from lock.acquire(thread)

        thread.start(body())
        with pytest.raises(LockError):
            sim.run()

    def test_release_by_non_owner_raises(self, sim):
        pool, lock = setup(sim)
        a = CpuBoundThread(pool, "a")
        b = CpuBoundThread(pool, "b")

        def owner_body():
            yield from lock.acquire(a)
            yield from a.run_for(100.0)

        def rogue_body():
            yield from b.run_for(1.0)
            lock.release(b)

        a.start(owner_body())
        b.start(rogue_body())
        with pytest.raises(LockError):
            sim.run()

    def test_pending_charge_spent_before_grant(self, sim):
        # Lock state must be observed at true logical time: work charged
        # before acquire may not land inside the holding window.
        pool, lock = setup(sim)
        thread = CpuBoundThread(pool)

        def body():
            thread.charge(50.0)
            yield from lock.acquire(thread)
            lock.release(thread)

        thread.start(body())
        sim.run()
        assert lock.stats.total_hold_us == pytest.approx(0.0)
        assert sim.now == pytest.approx(50.0)


class TestAcquireContract:
    """``acquire`` returns ``()`` when it granted inline, else a
    generator that realises the charge and then grants or blocks."""

    def test_uncontended_acquire_grants_inline(self, sim):
        pool, lock = setup(sim, grant=0.5)
        thread = CpuBoundThread(pool)
        returned = []

        def body():
            thread.charge(3.0)
            waits = lock.acquire(thread)
            returned.append((waits, lock.owner is thread, sim.now))
            yield from waits
            lock.release(thread)

        thread.start(body())
        sim.run()
        # The 3us charge was realised in place: nothing else was due.
        assert returned == [((), True, 3.0)]
        assert lock.stats.requests == 1

    def test_contended_acquire_returns_generator(self, sim):
        pool, lock = setup(sim)
        a, b = CpuBoundThread(pool, "a"), CpuBoundThread(pool, "b")
        lock.try_acquire(a)
        waits = lock.acquire(b)
        assert inspect.isgenerator(waits)
        assert lock.owner is a
        waits.close()

    def test_reentry_raises_at_call(self, sim):
        pool, lock = setup(sim)
        thread = CpuBoundThread(pool)
        assert lock.acquire(thread) == ()
        with pytest.raises(LockError):
            lock.acquire(thread)

    def test_woken_waiter_closed_hands_wakeup_on(self, sim):
        """A waiter woken by a release but closed before it re-acquires
        passes the wakeup to the next waiter (no lost wakeup), and the
        lock monitor's shadow agrees."""
        checker = CorrectnessChecker()
        sim.checker = checker
        pool, lock = setup(sim, n_cpus=1)
        a, b, c = (CpuBoundThread(pool, name) for name in "abc")
        granted = []

        def holder():
            yield from lock.acquire(a)
            yield from a.sleep_blocked(100.0)
            lock.release(a)
            # Keep the only CPU: woken b parks on a processor slot.
            yield from a.run_for(50.0)

        def waiter(thread, delay):
            yield from thread.sleep_blocked(delay)
            yield from lock.acquire(thread)
            granted.append((thread.name, sim.now))
            lock.release(thread)

        dead = waiter(b, 5.0)
        a.start(holder())
        b.start(dead)
        c.start(waiter(c, 10.0))
        sim.run(until=120.0)
        assert lock.queue_length == 1 and not lock.held  # b woken
        assert pool.ready_count == 1  # b, parked for the CPU
        dead.close()
        assert lock.queue_length == 0  # c took b's wakeup
        assert pool.ready_count == 0  # b left the ready queue
        sim.run()
        assert granted == [("c", 150.0)]
        assert pool.free_processors == 1 and pool.ready_count == 0
        checker.finalize()


class TestTryLock:
    def test_try_on_free_lock_succeeds(self, sim):
        pool, lock = setup(sim)
        thread = CpuBoundThread(pool)
        outcomes = []

        def body():
            outcomes.append(lock.try_acquire(thread))
            lock.release(thread)
            yield from thread.spend()

        thread.start(body())
        sim.run()
        assert outcomes == [True]
        assert lock.stats.try_attempts == 1
        assert lock.stats.try_failures == 0

    def test_try_on_held_lock_fails_without_blocking(self, sim):
        pool, lock = setup(sim)
        a = CpuBoundThread(pool, "a")
        b = CpuBoundThread(pool, "b")
        outcomes = []

        def holder():
            yield from lock.acquire(a)
            yield from a.run_for(10.0)
            lock.release(a)

        def trier():
            yield from b.run_for(1.0)
            outcomes.append((lock.try_acquire(b), sim.now))
            yield from b.run_for(1.0)

        a.start(holder())
        b.start(trier())
        sim.run()
        assert outcomes == [(False, 1.0)]
        assert lock.stats.try_failures == 1
        assert lock.stats.contentions == 0

    def test_try_success_counts_as_request(self, sim):
        # Regression: a successful TryLock is a satisfied lock request
        # and must count in stats.requests, like a blocking Lock()
        # does. (It used to count only the acquisition, leaving
        # requests < acquisitions and inflating per-request ratios for
        # batched systems, whose grants are almost all try successes.)
        pool, lock = setup(sim)
        thread = CpuBoundThread(pool)

        def body():
            assert lock.try_acquire(thread)
            lock.release(thread)
            yield from lock.acquire(thread)
            lock.release(thread)
            yield from thread.spend()

        thread.start(body())
        sim.run()
        assert lock.stats.requests == 2
        assert lock.stats.acquisitions == 2
        # A *failed* try is not a request: nothing was satisfied and
        # nothing blocked (covered by the asymmetry test below).

    def test_failed_try_is_not_a_request(self, sim):
        pool, lock = setup(sim)
        a = CpuBoundThread(pool, "a")
        b = CpuBoundThread(pool, "b")

        def holder():
            yield from lock.acquire(a)
            yield from a.run_for(10.0)
            lock.release(a)

        def trier():
            yield from b.run_for(1.0)
            assert not lock.try_acquire(b)
            yield from b.run_for(1.0)

        a.start(holder())
        b.start(trier())
        sim.run()
        assert lock.stats.requests == 1        # the holder's only
        assert lock.stats.try_attempts == 1
        assert lock.stats.try_failures == 1


class TestContention:
    def test_blocked_request_counts_once(self, sim):
        pool, lock = setup(sim)
        a = CpuBoundThread(pool, "a")
        b = CpuBoundThread(pool, "b")
        log = []

        def holder():
            yield from lock.acquire(a)
            yield from a.run_for(10.0)
            lock.release(a)

        def waiter():
            yield from b.run_for(1.0)
            yield from lock.acquire(b)
            log.append(sim.now)
            lock.release(b)

        a.start(holder())
        b.start(waiter())
        sim.run()
        assert lock.stats.contentions == 1
        assert log and log[0] >= 10.0
        assert lock.stats.total_wait_us == pytest.approx(log[0] - 1.0)

    def test_fifo_wakeup_order(self, sim):
        pool, lock = setup(sim, n_cpus=8)
        order = []

        def holder(thread):
            yield from lock.acquire(thread)
            yield from thread.run_for(10.0)
            lock.release(thread)

        def waiter(thread, tag, delay):
            yield from thread.run_for(delay)
            yield from lock.acquire(thread)
            order.append(tag)
            lock.release(thread)

        h = CpuBoundThread(pool, "h")
        h.start(holder(h))
        for tag, delay in [("first", 1.0), ("second", 2.0),
                           ("third", 3.0)]:
            thread = CpuBoundThread(pool, tag)
            thread.start(waiter(thread, tag, delay))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_mesa_barging_is_possible(self, sim):
        # A running thread may grab a just-freed lock before the woken
        # waiter is re-dispatched (context switches make waking slow).
        pool, lock = setup(sim, n_cpus=2, ctx=5.0)
        order = []

        def holder(thread):
            yield from lock.acquire(thread)
            yield from thread.run_for(10.0)
            lock.release(thread)
            # Immediately try again: the waiter needs 5us to wake, so
            # this barging acquire wins.
            yield from lock.acquire(thread)
            order.append("barger")
            yield from thread.run_for(1.0)
            lock.release(thread)

        def waiter(thread):
            yield from thread.run_for(1.0)
            yield from lock.acquire(thread)
            order.append("waiter")
            lock.release(thread)

        h = CpuBoundThread(pool, "h")
        w = CpuBoundThread(pool, "w")
        h.start(holder(h))
        w.start(waiter(w))
        sim.run()
        assert order == ["barger", "waiter"]
        # The waiter blocked once despite retrying.
        assert lock.stats.contentions == 1

    def test_barging_loser_requeues_at_tail(self, sim):
        # Regression for the wake-up rotation documented in SimLock:
        # a woken waiter that loses the barging race re-queues at the
        # TAIL (as PostgreSQL's LWLockAcquire does), so the next
        # release wakes the *other* waiter — attempts rotate instead of
        # one unlucky thread pinning the head slot.
        from repro.check import CorrectnessChecker
        checker = CorrectnessChecker()
        sim.checker = checker
        pool, lock = setup(sim, n_cpus=4, ctx=5.0)
        order = []

        def holder(thread):
            yield from lock.acquire(thread)
            yield from thread.run_for(10.0)
            lock.release(thread)

        def waiter(thread, tag, delay):
            yield from thread.run_for(delay)
            yield from lock.acquire(thread)
            order.append(tag)
            yield from thread.run_for(1.0)
            lock.release(thread)

        def barger(thread):
            # Arrives just after the release wakes waiter "a" (whose
            # re-dispatch takes a 5us context switch) and steals the
            # lock, forcing "a" to re-queue behind "b".
            yield from thread.run_for(10.5)
            yield from lock.acquire(thread)
            order.append("barger")
            yield from thread.run_for(20.0)
            lock.release(thread)

        h = CpuBoundThread(pool, "h")
        a = CpuBoundThread(pool, "a")
        b = CpuBoundThread(pool, "b")
        c = CpuBoundThread(pool, "c")
        h.start(holder(h))
        a.start(waiter(a, "a", 1.0))
        b.start(waiter(b, "b", 2.0))
        c.start(barger(c))
        sim.run()
        # "a" blocked first but lost the barging race; rotation means
        # "b" (already queued) is served before "a" retries.
        assert order == ["barger", "b", "a"]
        # The shadow monitor validated every transition online; the
        # quiescent end state must also be clean, with exactly one
        # tail re-queue observed.
        checker.finalize()
        assert checker.lock_monitor.summary()["lock"]["requeues"] == 1

    def test_no_lost_wakeup(self, sim):
        # Hammer the lock from many threads; everyone must finish.
        pool, lock = setup(sim, n_cpus=2, ctx=1.0)
        finished = []

        def body(thread, tag):
            for _ in range(20):
                yield from thread.run_for(1.0)
                yield from lock.acquire(thread)
                yield from thread.run_for(0.5)
                lock.release(thread)
            finished.append(tag)

        for tag in range(6):
            thread = CpuBoundThread(pool, f"t{tag}")
            thread.start(body(thread, tag))
        sim.run()
        assert sorted(finished) == list(range(6))
        assert not lock.held
        assert lock.queue_length == 0


class TestLockStats:
    def test_contentions_per_million(self):
        stats = LockStats(contentions=5)
        assert stats.contentions_per_million(1000) == 5000.0
        assert stats.contentions_per_million(0) == 0.0

    def test_lock_time_per_access(self):
        stats = LockStats(total_wait_us=30.0, total_hold_us=70.0)
        assert stats.lock_time_per_access_us(100) == pytest.approx(1.0)

    def test_copy_and_delta(self):
        stats = LockStats(requests=10, contentions=3, acquisitions=10,
                          total_wait_us=5.0, total_hold_us=9.0)
        snapshot = stats.copy()
        stats.requests += 5
        stats.contentions += 1
        stats.total_hold_us += 2.0
        delta = stats.delta_since(snapshot)
        assert delta.requests == 5
        assert delta.contentions == 1
        assert delta.total_hold_us == pytest.approx(2.0)
        assert snapshot.requests == 10  # snapshot unaffected

    def test_merged_with(self):
        a = LockStats(requests=1, contentions=2, max_hold_us=5.0)
        b = LockStats(requests=3, contentions=4, max_hold_us=7.0)
        merged = a.merged_with(b)
        assert merged.requests == 4
        assert merged.contentions == 6
        assert merged.max_hold_us == 7.0

    def test_mean_helpers_guard_zero(self):
        stats = LockStats()
        assert stats.mean_hold_us() == 0.0
        assert stats.mean_wait_us() == 0.0

    def test_contention_rate(self):
        stats = LockStats(requests=10, contentions=3)
        assert stats.contention_rate == pytest.approx(0.3)

    def test_contention_rate_guards_zero(self):
        assert LockStats().contention_rate == 0.0


class TestRequestAccounting:
    """Every grant corresponds to exactly one counted request, whether
    it arrived through a blocking ``Lock()`` or a successful
    ``TryLock`` — so ``contention_rate`` means the same thing for
    direct systems (all blocking) and batched systems (mostly try
    successes)."""

    def _run_pattern(self, sim, use_try):
        pool, lock = setup(sim, n_cpus=2, ctx=0.0)
        a = CpuBoundThread(pool, "a")
        b = CpuBoundThread(pool, "b")

        def worker(thread, delay):
            yield from thread.run_for(delay)
            for _ in range(10):
                if use_try and lock.try_acquire(thread):
                    pass  # the batched fast path (Fig. 4 line 8)
                else:
                    yield from lock.acquire(thread)
                yield from thread.run_for(1.0)
                lock.release(thread)
                yield from thread.run_for(1.0)

        a.start(worker(a, 0.0))
        b.start(worker(b, 0.5))
        sim.run()
        return lock.stats

    def test_direct_and_batched_patterns_agree(self, sim):
        direct = self._run_pattern(sim, use_try=False)
        from repro.simcore.engine import Simulator
        batched = self._run_pattern(Simulator(), use_try=True)
        for stats in (direct, batched):
            # The invariant the bug broke: grants == counted requests.
            assert stats.acquisitions == stats.requests == 20
            assert stats.contention_rate == pytest.approx(
                stats.contentions / stats.requests)
            assert 0.0 <= stats.contention_rate <= 1.0


@pytest.mark.parametrize("runtime_cls", [Simulator, NativeRuntime])
@pytest.mark.parametrize("field", ["grant_cost_us", "try_cost_us"])
def test_negative_lock_cost_rejected_at_construction(runtime_cls, field):
    """Locks add their costs to ``pending_us`` unchecked, so a
    negative one must fail when the lock is built, on either runtime."""
    with pytest.raises(ConfigError, match=f"lock 'L': {field}"):
        runtime_cls().create_lock("L", **{field: -0.1})
