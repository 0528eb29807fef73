"""Tests for the processor pool and CPU-bound threads."""

from __future__ import annotations

import collections
import heapq
import json

import pytest

from repro.check.checker import CorrectnessChecker
from repro.check.fuzzer import generate_cases
from repro.errors import SimulationError
from repro.hardware.machines import ALTIX_350
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.macro import MacroConfig, run_macro
from repro.obs import MetricsRegistry, Observer, TraceRecorder
from repro.serve import ServeConfig, run_serve
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore import cpu, engine
from repro.simcore.engine import Simulator


def run_threads(sim, pool, bodies):
    threads = []
    for index, body_factory in enumerate(bodies):
        thread = CpuBoundThread(pool, name=f"t{index}")
        thread.start(body_factory(thread))
        threads.append(thread)
    sim.run()
    return threads


class TestProcessorPool:
    def test_requires_processor(self, sim):
        with pytest.raises(SimulationError):
            ProcessorPool(sim, 0, 0.0)

    def test_parallel_threads_overlap(self, sim):
        pool = ProcessorPool(sim, 2, context_switch_us=0.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body, body])
        assert sim.now == 10.0  # two CPUs -> fully parallel

    def test_overcommit_serializes(self, sim):
        pool = ProcessorPool(sim, 1, context_switch_us=0.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body, body])
        assert sim.now == 20.0  # one CPU -> back-to-back

    def test_context_switch_cost_charged_on_dispatch(self, sim):
        pool = ProcessorPool(sim, 1, context_switch_us=2.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body])
        assert sim.now == 12.0  # dispatch ctx + work

    def test_utilization(self, sim):
        pool = ProcessorPool(sim, 2, context_switch_us=0.0)

        def body(thread):
            yield from thread.run_for(10.0)

        run_threads(sim, pool, [body])
        # One thread busy 10us on a 2-CPU pool -> 50%.
        assert pool.utilization(sim.now) == pytest.approx(0.5)

    def test_release_overflow_detected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        with pytest.raises(SimulationError):
            pool._release()


class TestCharges:
    def test_charges_accumulate_until_spend(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        observed = []

        def body(thread):
            thread.charge(3.0)
            thread.charge(4.0)
            observed.append(sim.now)
            yield from thread.spend()
            observed.append(sim.now)

        run_threads(sim, pool, [body])
        assert observed == [0.0, 7.0]

    def test_negative_charge_rejected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        with pytest.raises(SimulationError):
            thread.charge(-1.0)

    def test_cpu_time_accounting(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)

        def body(thread):
            yield from thread.run_for(5.0)
            yield from thread.run_for(7.0)

        threads = run_threads(sim, pool, [body])
        assert threads[0].cpu_time == pytest.approx(12.0)


class TestBlocking:
    def test_wait_releases_cpu(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        gate = sim.event()
        log = []

        def waiter(thread):
            yield from thread.run_for(1.0)
            yield from thread.wait(gate)
            log.append(("waiter", sim.now))

        def runner(thread):
            yield from thread.run_for(5.0)
            log.append(("runner", sim.now))
            gate.succeed()

        run_threads(sim, pool, [waiter, runner])
        # The runner got the CPU while the waiter was blocked; the
        # waiter resumed after the gate opened.
        assert log == [("runner", 6.0), ("waiter", 6.0)]

    def test_blocked_time_accounted(self, sim):
        pool = ProcessorPool(sim, 2, 0.0)

        def sleeper(thread):
            yield from thread.sleep_blocked(25.0)

        threads = run_threads(sim, pool, [sleeper])
        assert threads[0].blocked_time == pytest.approx(25.0)
        assert threads[0].blocks == 1

    def test_woken_thread_gets_priority_dispatch(self, sim):
        # Three threads, one CPU: a woken sleeper queues ahead of a
        # voluntarily-yielded thread (sleeper boost).
        pool = ProcessorPool(sim, 1, 0.0)
        order = []

        def sleeper(thread):
            yield from thread.sleep_blocked(5.0)
            order.append("sleeper")

        def spinner(thread):
            for _ in range(4):
                yield from thread.run_for(3.0)
                yield from thread.yield_cpu()
                order.append("spinner-leg")

        run_threads(sim, pool, [sleeper, spinner])
        # The sleeper wakes at t=5 mid-leg and must run before the
        # spinner's remaining legs.
        assert order.index("sleeper") <= 2

    def test_quantum_yield(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        order = []

        def hog(thread):
            for _ in range(10):
                yield from thread.run_for(10.0)
                yield from thread.maybe_yield(25.0)
            order.append("hog-done")

        def peer(thread):
            yield from thread.run_for(1.0)
            order.append("peer-done")

        run_threads(sim, pool, [hog, peer])
        # Without preemption the peer would finish last; the quantum
        # lets it in after ~30us of hog time.
        assert order == ["peer-done", "hog-done"]

    def test_voluntary_yield_noop_when_alone(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)

        def body(thread):
            yield from thread.run_for(1.0)
            yield from thread.yield_cpu()
            yield from thread.run_for(1.0)

        threads = run_threads(sim, pool, [body])
        assert threads[0].voluntary_yields == 0
        assert sim.now == 2.0

    def test_double_start_rejected(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)

        def body():
            yield 1.0

        thread.start(body())
        with pytest.raises(SimulationError):
            thread.start(body())


class TestParkAndWake:
    def test_wake_resumes_at_next_seq(self, sim, at):
        """A wake pushes one entry at ``(now, next seq)``: a timer due
        at the same time but pushed earlier runs first."""
        pool = ProcessorPool(sim, 2, 0.0)
        sleeper, waker = (CpuBoundThread(pool, name)
                          for name in ("sleeper", "waker"))
        order = []

        def sleeping():
            yield from sleeper.park()
            order.append(("sleeper", sim.now))

        def waking():
            yield from waker.run_for(5.0)
            at(sim, 0.0, lambda: order.append(("timer", sim.now)))
            pushed = sim._seq
            sleeper.wake()
            assert sim._seq == pushed + 1 and len(sim._heap) == 2
            yield from waker.run_for(1.0)

        sleeper.start(sleeping())
        waker.start(waking())
        sim.run()
        assert order == [("timer", 5.0), ("sleeper", 5.0)]
        assert sleeper.blocks == 1 and sleeper.blocked_time == 5.0

    def test_wake_before_park_is_a_zero_delay(self, sim, at):
        """Woken before it parked, a thread resumes at delay 0 through
        the heap, as yielding an already-triggered event does."""
        pool = ProcessorPool(sim, 1, 0.0)
        order = []

        def body(thread):
            thread.wake()
            at(sim, 0.0, lambda: order.append("timer"))
            yield from thread.park()
            order.append(("thread", sim.now))

        run_threads(sim, pool, [body])
        assert order == ["timer", ("thread", 0.0)]

    def test_sleep_blocked_matches_timeout(self):
        """Timed sleeps wake in the order recorded when a sleep with a
        charge pending still waited on a timeout event (identical to
        the sleeps' own timer entries then). With the larger charges
        the timer goes off while the thread is still spending."""
        def run_once(charge_step):
            engine = Simulator()
            pool = ProcessorPool(engine, 2, 0.5)
            order = []

            def body(thread, delay, charge):
                for _ in range(3):
                    thread.charge(charge)
                    yield from thread.sleep_blocked(delay)
                    order.append((thread.name, engine.now))

            for index in range(4):
                thread = CpuBoundThread(pool, f"t{index}")
                thread.start(body(thread, 2.0 + index % 2,
                                  index * charge_step))
            engine.run()
            return order, engine.events_processed

        assert run_once(0.5) == (
            [("t0", 3.0), ("t2", 3.5), ("t1", 4.0), ("t3", 5.0),
             ("t0", 5.5), ("t2", 6.0), ("t1", 7.5), ("t0", 8.0),
             ("t2", 8.5), ("t3", 8.5), ("t1", 11.0), ("t3", 12.0)], 48)
        assert run_once(1.5) == (
            [("t1", 4.5), ("t2", 6.5), ("t0", 7.5), ("t1", 8.0),
             ("t3", 10.0), ("t0", 10.0), ("t2", 10.5), ("t0", 14.0),
             ("t2", 14.5), ("t1", 15.0), ("t3", 15.0), ("t3", 20.0)], 59)


class TestAbort:
    """A thread closed while parked leaves its queue, or hands on the
    processor a release already gave it."""

    def start(self, sim, pool, names, body):
        threads = [CpuBoundThread(pool, name) for name in names]
        for thread in threads:
            thread.start(body(thread))
        return threads

    def test_closed_in_ready_queue_leaves_it(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        done = []

        def body(thread):
            yield from thread.run_for(10.0)
            done.append((thread.name, sim.now))

        threads = self.start(sim, pool, ["hog", "t1", "t2"], body)
        sim.run(until=5.0)
        threads[1].abort()
        assert pool.ready_count == 1
        sim.run()
        assert done == [("hog", 10.0), ("t2", 20.0)]
        assert pool.free_processors == 1

    def test_woken_then_closed_hands_processor_on(self, sim, step):
        pool = ProcessorPool(sim, 1, 0.0)
        done = []

        def body(thread):
            yield from thread.run_for(10.0)
            done.append((thread.name, sim.now))

        threads = self.start(sim, pool, ["hog", "t1", "t2"], body)
        sim.run(until=5.0)
        while pool.ready_count == 2:
            step(sim)
        assert done == [("hog", 10.0)]  # t1 woken, not yet resumed
        threads[1].abort()
        assert pool.ready_count == 0  # t2 got the processor
        sim.run()
        assert done == [("hog", 10.0), ("t2", 20.0)]
        assert pool.free_processors == 1

    def test_closed_mid_context_switch_releases(self, sim):
        pool = ProcessorPool(sim, 1, 4.0)
        done = []

        def body(thread):
            yield from thread.run_for(10.0)
            done.append((thread.name, sim.now))

        threads = self.start(sim, pool, ["hog", "t1"], body)
        sim.run(until=16.0)  # t1 dispatched at 14, switching until 18
        threads[1].abort()
        assert pool.free_processors == 1
        sim.run()
        assert done == [("hog", 14.0)]

    def test_closed_in_timed_sleep_is_not_resumed(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        done = []

        def body(thread):
            yield from thread.sleep_blocked(10.0)
            done.append(thread.name)

        threads = self.start(sim, pool, ["sleeper"], body)
        sim.run(until=5.0)
        threads[0].abort()
        sim.run()
        assert done == [] and sim.now == 10.0  # the timer popped idle
        assert pool.free_processors == 1


class TestLifecycle:
    """A thread's process runs its start (the first processor
    acquire), its body and its exit (the last spend and the release)
    in turn, each from the step that finished the one before."""

    def test_queued_first_acquire_starts_body_after_dispatch(self, sim):
        pool = ProcessorPool(sim, 1, context_switch_us=2.0)
        log = []

        def first(thread):
            yield from thread.run_for(10.0)
            log.append(("a", sim.now))

        def second(thread):
            log.append(("b-body", sim.now))
            yield from thread.run_for(1.0)

        a, b = CpuBoundThread(pool, "a"), CpuBoundThread(pool, "b")
        a.start(first(a))
        b.start(second(b))
        # a: switch 0-2, runs 2-12, releases to b; b's switch 12-14 is
        # still going at 13, so its body has not started.
        sim.run(until=13.0)
        assert log == [("a", 12.0)]
        sim.run()
        assert log == [("a", 12.0), ("b-body", 14.0)]
        assert sim.now == 15.0 and pool.busy_time == 15.0
        assert pool.free_processors == 1

    def test_body_returning_at_once_realises_charge_before_release(
            self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        log = []

        def charges_and_returns(thread):
            thread.charge(5.0)
            return
            yield

        def waits(thread):
            log.append(("b", sim.now))
            yield from thread.run_for(1.0)

        a, b = run_threads(sim, pool, [charges_and_returns, waits])
        # a's exit spends its 5 us before it releases the processor.
        assert log == [("b", 5.0)] and sim.now == 6.0
        assert a.cpu_time == 5.0 and a.pending_us == 0.0
        assert pool.free_processors == 1

    def test_raising_body_leaves_run_and_join_frees_every_processor(
            self, sim):
        pool = ProcessorPool(sim, 2, 0.0)

        def crashes(thread):
            yield from thread.run_for(3.0)
            thread.charge(2.0)
            raise RuntimeError("boom")

        def works(thread):
            yield from thread.run_for(10.0)

        threads = [CpuBoundThread(pool, f"t{index}") for index in range(4)]
        for thread, body in zip(threads, [crashes, works, works, works]):
            thread.start(body(thread))
        with pytest.raises(RuntimeError, match="boom"):
            sim.join(threads, [], budget_us=1000.0)
        # The raise left run at 3, its 2 us charge dropped unrealised;
        # t1 was mid-body, t2 and t3 queued for their first processor.
        assert sim.now == 3.0
        assert threads[0].cpu_time == 3.0 and threads[0].pending_us == 0.0
        assert (pool.free_processors, pool.ready_count) == (2, 0)
        assert not any(thread.process.alive for thread in threads)

    @pytest.mark.parametrize("where", ["first-acquire", "mid-body",
                                       "voluntary-yield"])
    def test_abort(self, sim, where):
        pool = ProcessorPool(sim, 1, 0.0)
        done = []

        def body(thread):
            yield from thread.run_for(4.0 if thread.name == "a" else 10.0)
            yield from thread.yield_cpu()
            yield from thread.run_for(4.0 if thread.name == "a" else 0.0)
            done.append((thread.name, sim.now))

        a, b = CpuBoundThread(pool, "a"), CpuBoundThread(pool, "b")
        a.start(body(a))
        b.start(body(b))
        # a runs 0-4 and yields to b, which runs from 4 to 14.
        until, aborted, expected = {
            "first-acquire": (2.0, b, [("a", 8.0)]),
            "mid-body": (2.0, a, [("b", 12.0)]),
            "voluntary-yield": (5.0, a, [("b", 14.0)]),
        }[where]
        sim.run(until=until)
        aborted.abort()
        assert not aborted.process.alive
        sim.run()
        assert done == expected
        assert (pool.free_processors, pool.ready_count) == (1, 0)
        assert a.voluntary_yields == (where == "voluntary-yield")


class TestInPlaceAdvance:
    def test_spend_ending_at_queued_event_goes_through_heap(self, sim, at):
        """A wake time equal to ``heap[0]``'s is not advanced in place:
        the earlier-scheduled event keeps its ``(time, seq)`` turn."""
        pool = ProcessorPool(sim, 1, 0.0)
        order = []
        returned = []
        at(sim, 5.0, lambda: order.append("timer"))

        def body(thread):
            thread.charge(5.0)
            waits = thread.spend()
            returned.append(waits)
            yield from waits
            order.append("thread")

        run_threads(sim, pool, [body])
        assert order == ["timer", "thread"]
        assert returned[0] == (5.0,)  # a float delay, through the heap

    def test_spend_ending_before_queued_event_advances(self, sim, at):
        pool = ProcessorPool(sim, 1, 0.0)
        order = []
        at(sim, 5.0, lambda: order.append("timer"))

        def body(thread):
            thread.charge(4.0)
            waits = thread.spend()
            order.append(("thread", waits, sim.now))
            yield from waits

        run_threads(sim, pool, [body])
        assert order == [("thread", (), 4.0), "timer"]

    def test_sibling_callbacks_block_advance(self, sim, at):
        """Two processes woken by one event: the first may not advance
        the clock while the second is still due at the same time."""
        pool = ProcessorPool(sim, 2, 0.0)
        gate = sim.event()
        woke = []

        def body(thread):
            yield from thread.wait(gate)
            woke.append((thread.name, sim.now))
            yield from thread.run_for(3.0)

        threads = [CpuBoundThread(pool, name=f"t{index}")
                   for index in range(2)]
        for thread in threads:
            thread.start(body(thread))
        at(sim, 1.0, gate.succeed)
        sim.run()
        assert woke == [("t0", 1.0), ("t1", 1.0)]
        assert sim.now == 4.0


def _fuzz_run():
    config = generate_cases(7, 1)[0].to_config()
    checker = CorrectnessChecker()
    result = run_experiment(config, checker=checker)
    return result.to_dict(), checker


def _trace_run():
    config = ExperimentConfig(
        system="pg2Q", workload="dbt2", workload_kwargs={"n_warehouses": 2},
        n_processors=4, buffer_pages=120, target_accesses=2500,
        use_disk=True, background_writer=True, seed=5)
    recorder = TraceRecorder()
    checker = CorrectnessChecker()
    result = run_experiment(
        config, observer=Observer(trace=recorder, metrics=MetricsRegistry()),
        checker=checker)
    record = result.to_dict()
    assert record["disk_writes"] > 0 and record["bgwriter_cleaned"] > 0
    record["trace"] = list(recorder.records())
    return record, checker


def _macro_run():
    config = MacroConfig(system="pg2Q", target_queries=40, n_threads=8,
                         n_processors=4, buffer_pages=160, seed=11)
    return run_macro(config).to_dict(), None


def _serve_run():
    config = ServeConfig(n_shards=2, n_tenants=3, sessions_per_tenant=2,
                         pages_per_tenant=48, hot_pages=8,
                         target_requests=300, n_processors=4, seed=13)
    checker = CorrectnessChecker()
    return run_serve(config, checker=checker).to_dict(), checker


def _disk_queue_run():
    """Disk-slot waiters, lock waiters and the bgwriter all park: a
    one-slot disk under eight pg2Q threads."""
    config = ExperimentConfig(
        system="pg2Q", workload="dbt2", workload_kwargs={"n_warehouses": 2},
        machine=ALTIX_350.with_costs(disk_concurrency=1), n_processors=4,
        buffer_pages=120, target_accesses=2500, use_disk=True,
        background_writer=True, seed=9)
    checker = CorrectnessChecker()
    record = run_experiment(config, checker=checker).to_dict()
    assert record["contention_per_million"] > 0
    assert record["bgwriter_cleaned"] > 0
    return record, checker


class TestInPlaceAdvanceDifferential:
    """Whole runs with in-place advance on (the default) and off (every
    charge through the heap) must be indistinguishable: byte-equal
    records and the same lock-monitor verdicts."""

    @pytest.mark.parametrize("run", [_fuzz_run, _trace_run, _macro_run,
                                     _serve_run, _disk_queue_run],
                             ids=["fuzz", "trace-disk-bgwriter", "macro",
                                  "serve", "disk-queue-lock-bgwriter"])
    def test_on_equals_off(self, run, heap_only, monkeypatch):
        # Every entry popped was pushed by a heappush the simulator
        # binds (the engine's: Simulator._schedule and the inline
        # pushes of a float delay; the CPU model's: a wake), and every
        # one of them is counted: a push that bypassed them would
        # break pops + queued == pushes. Only the run's own simulators
        # count (a generator of an earlier test, closed by the garbage
        # collector mid-run, may still hand a processor on in its own).
        sims = {}
        pushes = collections.Counter()
        pops = collections.Counter()
        init = Simulator.__init__

        def tracking_init(self):
            init(self)
            sims[id(self._heap)] = self

        def counting_push(heap, item):
            if id(heap) in sims:
                pushes[id(heap)] += 1
            heapq.heappush(heap, item)

        def counting_pop(heap):
            pops[id(heap)] += 1
            return heapq.heappop(heap)

        monkeypatch.setattr(Simulator, "__init__", tracking_init)
        for module in (engine, cpu):
            monkeypatch.setattr(module, "heappush", counting_push)
        monkeypatch.setattr(engine, "heappop", counting_pop)

        def outcome():
            sims.clear()
            pushes.clear()
            pops.clear()
            record, checker = run()
            for sim in sims.values():
                assert (pops[id(sim._heap)] + len(sim._heap)
                        == pushes[id(sim._heap)])
            verdict = None
            if checker is not None:
                checker.finalize()
                verdict = (checker.lock_monitor.summary(),
                           checker.arrivals)
            return (json.dumps(record, sort_keys=True, default=repr),
                    verdict, sum(pushes.values()))

        on, on_verdict, on_pushes = outcome()
        heap_only()
        off, off_verdict, off_pushes = outcome()
        assert on == off
        assert on_verdict == off_verdict
        assert on_pushes < off_pushes  # the switch really was on
