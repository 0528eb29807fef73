"""Tests for the processor pool and CPU-bound threads."""

from __future__ import annotations

import json

import pytest

from repro.check.checker import CorrectnessChecker
from repro.check.fuzzer import generate_cases
from repro.errors import SimulationError
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.macro import MacroConfig, run_macro
from repro.obs import MetricsRegistry, Observer, TraceRecorder
from repro.serve import ServeConfig, run_serve
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Event, Simulator, Sleep, Timeout


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
        assert pool.context_switch_time == 2.0

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
        gate = Event(sim)
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
            yield Timeout(sim, 1.0)

        thread.start(body())
        with pytest.raises(SimulationError):
            thread.start(body())


class TestInPlaceAdvance:
    def test_spend_ending_at_queued_event_goes_through_heap(self, sim):
        """A wake time equal to ``heap[0]``'s is not advanced in place:
        the earlier-scheduled event keeps its ``(time, seq)`` turn."""
        pool = ProcessorPool(sim, 1, 0.0)
        order = []
        returned = []
        Timeout(sim, 5.0).callbacks.append(lambda _e: order.append("timer"))

        def body(thread):
            thread.charge(5.0)
            waits = thread.spend()
            returned.append(waits)
            yield from waits
            order.append("thread")

        run_threads(sim, pool, [body])
        assert order == ["timer", "thread"]
        assert [waits.__class__ for waits in returned[0]] == [Sleep]

    def test_spend_ending_before_queued_event_advances(self, sim):
        pool = ProcessorPool(sim, 1, 0.0)
        order = []
        Timeout(sim, 5.0).callbacks.append(lambda _e: order.append("timer"))

        def body(thread):
            thread.charge(4.0)
            waits = thread.spend()
            order.append(("thread", waits, sim.now))
            yield from waits

        run_threads(sim, pool, [body])
        assert order == [("thread", (), 4.0), "timer"]

    def test_sibling_callbacks_block_advance(self, sim):
        """Two processes woken by one event: the first may not advance
        the clock while the second is still due at the same time."""
        pool = ProcessorPool(sim, 2, 0.0)
        gate = Event(sim)
        woke = []

        def body(thread):
            yield from thread.wait(gate)
            woke.append((thread.name, sim.now))
            yield from thread.run_for(3.0)

        threads = [CpuBoundThread(pool, name=f"t{index}")
                   for index in range(2)]
        for thread in threads:
            thread.start(body(thread))
        Timeout(sim, 1.0).callbacks.append(lambda _e: gate.succeed())
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


class TestInPlaceAdvanceDifferential:
    """Whole runs with in-place advance on (the default) and off (every
    charge through the heap) must be indistinguishable: byte-equal
    records and the same lock-monitor verdicts."""

    @pytest.mark.parametrize("run", [_fuzz_run, _trace_run, _macro_run,
                                     _serve_run],
                             ids=["fuzz", "trace-disk-bgwriter", "macro",
                                  "serve"])
    def test_on_equals_off(self, run, heap_only, monkeypatch):
        pushes = []
        schedule = Simulator._schedule

        def counting_schedule(self, delay, callback, *args):
            pushes.append(delay)
            schedule(self, delay, callback, *args)

        monkeypatch.setattr(Simulator, "_schedule", counting_schedule)

        def outcome():
            pushes.clear()
            record, checker = run()
            verdict = None
            if checker is not None:
                checker.finalize()
                verdict = (checker.lock_monitor.summary(),
                           checker.arrivals)
            return (json.dumps(record, sort_keys=True, default=repr),
                    verdict, len(pushes))

        on, on_verdict, on_pushes = outcome()
        heap_only()
        off, off_verdict, off_pushes = outcome()
        assert on == off
        assert on_verdict == off_verdict
        assert on_pushes < off_pushes  # the switch really was on
