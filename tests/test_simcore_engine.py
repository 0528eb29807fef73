"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Process, Simulator


def noop() -> None:
    pass


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim, at):
        at(sim, 5.0, noop)
        assert sim.run() == 5.0

    def test_clock_does_not_pass_until_on_drain(self, sim, at):
        at(sim, 5.0, noop)
        assert sim.run(until=100.0) == 5.0

    def test_until_cuts_off_future_events(self, sim, at):
        fired = []
        at(sim, 50.0, lambda: fired.append(sim.now))
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert not fired
        sim.run()
        assert fired == [50.0]

    def test_negative_delay_rejected(self, sim, at):
        with pytest.raises(SimulationError):
            at(sim, -1.0, noop)


class TestEvent:
    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()


class TestProcess:
    def test_sequential_timeouts(self, sim):
        log = []

        def body():
            yield 2.0
            log.append(sim.now)
            yield 3.0
            log.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert log == [2.0, 5.0]

    def test_wait_on_triggered_event_resumes(self, sim):
        """An event that already fired makes the wait a zero delay."""
        event = sim.event()
        event.succeed()
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))
        log = []

        def body():
            yield from thread.wait(event)
            log.append(sim.now)

        thread.start(body())
        sim.run()
        assert log == [0.0] and event.waiters == []
        assert thread.blocks == 1

    def test_yielding_non_event_raises(self, sim):
        def body():
            yield 42

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_body_must_be_generator(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_alive_flag(self, sim):
        def body():
            yield 1.0

        proc = sim.spawn(body())
        assert proc.alive
        sim.run()
        assert not proc.alive


class TestDeterminism:
    def test_tie_break_is_fifo(self, sim):
        order = []

        def body(tag):
            yield 1.0
            order.append(tag)

        for tag in range(5):
            sim.spawn(body(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_identical_runs_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []

            def body(tag, delay):
                yield delay
                trace.append((tag, sim.now))
                yield delay * 2
                trace.append((tag, sim.now))

            for tag in range(4):
                sim.spawn(body(tag, 1.0 + tag * 0.5))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestSleep:
    """A bare float yielded by a process is a private delay."""

    def test_sleep_advances_clock(self, sim):
        log = []

        def body():
            yield 2.5
            log.append(sim.now)
            yield 1.5
            log.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert log == [2.5, 4.0]

    def test_sleep_marker_carries_delay(self, sim, step):
        """The marker is the delay itself: one heap entry that resumes
        the body at ``now + delay``."""
        def body():
            yield 3.0

        proc = sim.spawn(body())
        step(sim)
        assert sim._heap == [(3.0, 2, proc)]
        sim.run()
        assert sim.events_processed == 2 and sim.now == 3.0

    def test_int_is_not_a_delay(self, sim):
        def body():
            yield 3

        sim.spawn(body())
        with pytest.raises(SimulationError, match="float delay"):
            sim.run()


class TestHeapEntries:
    """One heap entry per wake-up, resuming one thing."""

    def test_succeed_without_waiter_pushes_nothing(self, sim):
        event = sim.event()
        event.succeed()
        assert sim._seq == 0 and sim._heap == []
        assert event.triggered

    def test_succeed_with_one_waiter_pushes_its_resume(self, sim, at):
        event = sim.event()
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))
        woke = []

        def body():
            yield from thread.wait(event)
            woke.append(sim.now)

        thread.start(body())
        at(sim, 3.0, noop)
        sim.run()
        assert event.waiters == [thread]
        seq = sim._seq
        event.succeed()
        # The wake entry at (now, next seq), holding the waiter's
        # process.
        assert sim._heap == [(3.0, seq + 1, thread.process)]
        processed = sim.events_processed
        sim.run()
        assert woke == [3.0] and sim.events_processed == processed + 1

    def test_waiters_wake_in_park_order(self, sim, at):
        """Threads parked on one event resume at the ``succeed()`` time
        in the order they parked, not the order they were created."""
        pool = ProcessorPool(sim, 3, 0.0)
        event = sim.event()
        woke = []

        def body(thread, work):
            yield from thread.run_for(work)
            yield from thread.wait(event)
            woke.append((thread.name, sim.now))

        for name, work in (("t0", 2.0), ("t1", 3.0), ("t2", 1.0)):
            thread = CpuBoundThread(pool, name)
            thread.start(body(thread, work))
        at(sim, 10.0, event.succeed)
        sim.run()
        assert woke == [("t2", 10.0), ("t0", 10.0), ("t1", 10.0)]

    def test_timeout_calls_lone_callback_from_its_entry(self, sim):
        """A timed sleep's timer entry resumes the parked thread
        itself: no second entry for the wake."""
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))
        woke = []

        def body():
            yield from thread.sleep_blocked(2.0)
            woke.append(sim.now)

        thread.start(body())
        sim.run()
        assert woke == [2.0]
        assert sim.events_processed == 2 and sim._seq == 2

    def test_negative_sleep_blocked_rejected(self, sim):
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))

        def body():
            yield from thread.sleep_blocked(-1.0)

        thread.start(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_steps_count_heap_entries_exactly(self, sim, step):
        """Outside ``run`` nothing advances in place: through parks,
        wakes, timers and delays, every processed event is one popped
        entry, and every entry was pushed once."""
        pool = ProcessorPool(sim, 2, 1.0)
        lock = sim.create_lock()

        def body(thread):
            for _ in range(3):
                yield from lock.acquire(thread)
                yield from thread.run_for(2.0)
                lock.release(thread)
                yield from thread.sleep_blocked(1.0)
                yield from thread.yield_cpu()

        for index in range(4):
            thread = CpuBoundThread(pool, f"t{index}")
            thread.start(body(thread))
        while sim._heap:
            processed = sim.events_processed
            step(sim)
            assert sim.events_processed == processed + 1
            assert sim.events_processed + len(sim._heap) == sim._seq
        assert lock.stats.contentions > 0 and pool.free_processors == 2


class TestFailureSurfacing:
    def test_unwaited_process_failure_surfaces(self, sim):
        """A crashed process must not vanish."""
        def body():
            yield 1.0
            raise RuntimeError("nobody listening")

        sim.spawn(body())
        with pytest.raises(RuntimeError, match="nobody listening"):
            sim.run()

    def test_unwaited_failure_does_not_kill_alive_flag_twice(self, sim):
        def body():
            yield 1.0
            raise RuntimeError("boom")

        proc = sim.spawn(body())
        with pytest.raises(RuntimeError):
            sim.run()
        assert not proc.alive
        assert sim.now == 1.0

    def test_handled_failure_does_not_resurface(self, sim, at):
        """Once a failure left ``run``, running again goes on with the
        queued work and does not re-raise it."""
        def body():
            yield 1.0
            raise RuntimeError("consumed")

        sim.spawn(body())
        with pytest.raises(RuntimeError):
            sim.run()
        at(sim, 5.0, noop)
        assert sim.run() == 6.0


@pytest.fixture
def resumes(monkeypatch):
    """The names of the processes ``Process._resume`` resumed."""
    names = []
    resume = Process._resume

    def counting(self):
        names.append(self.name)
        resume(self)

    monkeypatch.setattr(Process, "_resume", counting)
    return names


def start_then(sim, path, tail):
    """Start process ``"p"``, whose body waits once and then runs
    ``tail()``: on ``"loop"`` a float delay, which the run loop resumes
    itself; on ``"timer"`` a ``sleep_blocked``, whose timer resumes the
    parked thread through ``Process._resume``."""
    if path == "loop":
        def body():
            yield 1.0
            yield from tail()
        return sim.spawn(body(), name="p")
    thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0), "p")

    def body():
        yield from thread.sleep_blocked(1.0)
        yield from tail()
    return thread.start(body())


#: ``Process._resume`` calls per path: the loop resumes inline.
RESUMED = {"loop": [], "timer": ["p"]}


@pytest.mark.parametrize("path", ["loop", "timer"])
class TestResumeErrorPaths:
    """A wake-up's failure paths behave the same whether the run loop
    resumes the process or a timer does."""

    def test_int_yield_names_the_process(self, sim, path, resumes):
        def tail():
            yield 3

        process = start_then(sim, path, tail)
        with pytest.raises(SimulationError,
                           match="process 'p' yielded 3; processes may "
                                 "only yield a float delay or PARKED"):
            sim.run()
        assert not process.alive and resumes == RESUMED[path]

    def test_negative_delay_is_rejected(self, sim, path, resumes):
        def tail():
            yield -1.0

        start_then(sim, path, tail)
        with pytest.raises(SimulationError,
                           match="cannot schedule into the past: -1.0"):
            sim.run()
        assert sim._heap == [] and resumes == RESUMED[path]

    def test_finished_body_schedules_nothing(self, sim, path, resumes):
        def tail():
            return
            yield

        process = start_then(sim, path, tail)
        sim.run()
        # The spawn and the wait were the only pushes.
        assert sim._seq == 2 and sim._heap == []
        assert sim.events_processed == 2 and sim.now == 1.0
        assert not process.alive and resumes == RESUMED[path]

    def test_raising_body_dies_and_its_error_leaves_run(self, sim, path,
                                                         resumes):
        def tail():
            raise RuntimeError("boom")
            yield

        process = start_then(sim, path, tail)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert not process.alive and sim.now == 1.0
        assert resumes == RESUMED[path]


class TestEnginePeekAndBudget:
    def test_run_after_drain_is_noop(self, sim, at):
        at(sim, 1.0, noop)
        sim.run()
        at_drain = sim.now
        sim.run()
        assert sim.now == at_drain

    def test_events_processed_accumulates(self, sim, at, step):
        for _ in range(5):
            at(sim, 1.0, noop)
        step(sim)
        step(sim)
        sim.run()
        assert sim.events_processed == 5


def start_spender(sim, charges, log=None):
    """One thread on one CPU realising ``charges`` back to back."""
    thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0), name="spender")

    def body():
        for cost in charges:
            yield from thread.run_for(cost)
            if log is not None:
                log.append(sim.now)

    thread.start(body())
    return thread


class TestInPlaceAdvance:
    """A charge ending before every queued event moves the clock in
    place; what ``run`` reports must not tell the difference."""

    def test_advance_never_passes_until(self, sim):
        log = []
        start_spender(sim, [3.0, 10.0], log)
        assert sim.run(until=8.0) == 8.0
        assert log == [3.0]  # advanced in place to 3, not to 13
        assert sim._heap[0][0] == 13.0  # the later wake stays queued
        sim.run()
        assert log == [3.0, 13.0]

    def test_advance_up_to_until_inclusive(self, sim):
        log = []
        start_spender(sim, [4.0, 4.0], log)
        sim.run(until=8.0)
        assert log == [4.0, 8.0]  # a wake at `until` is still due
        assert sim.now == 8.0

    def test_advances_count_as_events(self, sim, heap_only, at):
        def count_events():
            engine = Simulator()
            start_spender(engine, [1.0] * 5)
            at(engine, 100.0, noop)
            engine.run()
            return engine.events_processed, engine.now, engine._seq

        events_on, now_on, pushes_on = count_events()
        heap_only()
        events_off, now_off, pushes_off = count_events()
        assert (events_on, now_on) == (events_off, now_off)
        assert pushes_on < pushes_off  # the advances skipped the heap

    def test_single_steps_make_no_advance(self, sim, step):
        log = []
        start_spender(sim, [1.0] * 5, log)
        for _ in range(3):
            step(sim)
        assert sim.events_processed == 3
        # Start + two heap wakes: exactly the heap path's position.
        assert log == [1.0, 2.0]
        assert sim.now == 2.0 and sim._heap[0][0] == 3.0
        sim.run()
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_no_advance_outside_run(self, sim):
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))
        thread.charge(2.0)
        assert thread.spend() == (2.0,)
        assert sim.now == 0.0
