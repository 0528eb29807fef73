"""Tests for the discrete-event engine."""

from __future__ import annotations

from math import inf

import pytest

from repro.errors import SimulationError
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import (AllOf, AnyOf, Event, Process,
                                  Simulator, Timeout)


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        assert sim.run() == 5.0

    def test_clock_does_not_pass_until_on_drain(self, sim):
        sim.timeout(5.0)
        assert sim.run(until=100.0) == 5.0

    def test_until_cuts_off_future_events(self, sim):
        fired = []
        sim.schedule = None  # ensure we use public API only
        Timeout(sim, 50.0).callbacks.append(lambda e: fired.append(e))
        sim.run(until=10.0)
        assert sim.now == 10.0
        assert not fired
        sim.run()
        assert fired

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_max_events_budget(self, sim):
        for _ in range(10):
            sim.timeout(1.0)
        sim.run(max_events=3)
        assert sim.events_processed == 3


class TestEvent:
    def test_succeed_fires_callbacks(self, sim):
        event = sim.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")


class TestProcess:
    def test_sequential_timeouts(self, sim):
        log = []

        def body():
            yield Timeout(sim, 2.0)
            log.append(sim.now)
            yield Timeout(sim, 3.0)
            log.append(sim.now)

        sim.spawn(body())
        sim.run()
        assert log == [2.0, 5.0]

    def test_return_value_propagates(self, sim):
        def child():
            yield Timeout(sim, 1.0)
            return "done"

        def parent():
            value = yield sim.spawn(child())
            return value

        proc = sim.spawn(parent())
        sim.run()
        assert proc.value == "done"

    def test_wait_on_triggered_event_resumes(self, sim):
        event = sim.event()
        event.succeed("early")

        def body():
            value = yield event
            return value

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "early"

    def test_yielding_non_event_raises(self, sim):
        def body():
            yield 42

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_in_waited_event_rethrown(self, sim):
        event = sim.event()

        def body():
            try:
                yield event
            except ValueError as exc:
                return f"caught {exc}"

        proc = sim.spawn(body())
        event.fail(ValueError("boom"))
        sim.run()
        assert proc.value == "caught boom"

    def test_process_body_must_be_generator(self, sim):
        with pytest.raises(SimulationError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_alive_flag(self, sim):
        def body():
            yield Timeout(sim, 1.0)

        proc = sim.spawn(body())
        assert proc.alive
        sim.run()
        assert not proc.alive


class TestDeterminism:
    def test_tie_break_is_fifo(self, sim):
        order = []

        def body(tag):
            yield Timeout(sim, 1.0)
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
                yield Timeout(sim, delay)
                trace.append((tag, sim.now))
                yield Timeout(sim, delay * 2)
                trace.append((tag, sim.now))

            for tag in range(4):
                sim.spawn(body(tag, 1.0 + tag * 0.5))
            sim.run()
            return trace

        assert run_once() == run_once()


class TestCombinators:
    def test_anyof_first_wins(self, sim):
        fast = Timeout(sim, 1.0)
        slow = Timeout(sim, 5.0)

        def body():
            winner = yield AnyOf(sim, [slow, fast])
            return winner

        proc = sim.spawn(body())
        sim.run()
        assert proc.value is fast
        assert sim.now == 5.0  # slow still fires

    def test_allof_waits_for_all(self, sim):
        def body():
            yield AllOf(sim, [Timeout(sim, 1.0), Timeout(sim, 4.0)])
            return sim.now

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == 4.0

    def test_anyof_empty_rejected(self, sim):
        with pytest.raises(SimulationError):
            AnyOf(sim, [])

    def test_allof_with_pretriggered_events(self, sim):
        done = sim.event()
        done.succeed()

        def body():
            yield AllOf(sim, [done])
            return "ok"

        proc = sim.spawn(body())
        sim.run()
        assert proc.value == "ok"

    def test_anyof_pretriggered_registers_no_callbacks(self, sim):
        """A pre-triggered input decides AnyOf at construction; the
        still-pending inputs must not pick up dangling callbacks."""
        done = sim.event()
        done.succeed("early")
        pending = sim.event()
        any_of = AnyOf(sim, [pending, done])
        assert pending.callbacks == []
        assert done.callbacks == []

        def body():
            winner = yield any_of
            return winner

        proc = sim.spawn(body())
        sim.run()
        assert proc.value is done

    def test_anyof_mixed_triggered_failure_is_consumed(self, sim):
        """A pre-failed input wins AnyOf at construction; the
        combinator consumed its outcome, so the failure does not
        surface from the run loop as unhandled."""
        failed = sim.event()
        failed.fail(ValueError("pre-failed"))
        pending = sim.event()
        any_of = AnyOf(sim, [pending, failed])
        assert pending.callbacks == []

        def body():
            winner = yield any_of
            return winner

        proc = sim.spawn(body())
        sim.run()  # must not raise: AnyOf defused the failed input
        assert proc.value is failed


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

    def test_sleep_matches_timeout_timestamps(self):
        """A float delay is a drop-in for yielding a fresh Timeout."""
        def run_once(make_delay):
            sim = Simulator()
            trace = []

            def body(tag, delay):
                for _ in range(3):
                    yield make_delay(sim, delay)
                    trace.append((tag, sim.now))

            for tag in range(4):
                sim.spawn(body(tag, 1.0 + 0.5 * tag))
            sim.run()
            return trace

        with_timeout = run_once(lambda sim, d: Timeout(sim, d))
        with_sleep = run_once(lambda sim, d: d)
        assert with_sleep == with_timeout

    def test_sleep_marker_carries_delay(self, sim):
        """The marker is the delay itself: one heap entry that resumes
        the body at ``now + delay``."""
        def body():
            yield 3.0

        proc = sim.spawn(body())
        sim.run(max_events=1)
        assert sim._heap == [(3.0, 2, proc._resume, None)]
        sim.run()
        assert sim.events_processed == 2 and sim.now == 3.0

    def test_int_is_not_a_delay(self, sim):
        def body():
            yield 3

        sim.spawn(body())
        with pytest.raises(SimulationError, match="float delay"):
            sim.run()


class TestHeapEntries:
    """One heap entry per wake-up, carrying one argument."""

    def test_succeed_without_waiter_pushes_nothing(self, sim):
        event = sim.event()
        event.succeed("unheard")
        assert sim._seq == 0 and sim.peek() is None
        assert event.triggered and event.value == "unheard"

    def test_succeed_with_one_waiter_pushes_its_resume(self, sim):
        event = sim.event()
        got = []

        def body():
            got.append((yield event))

        proc = sim.spawn(body())
        sim.timeout(3.0)
        sim.run()
        seq = sim._seq
        event.succeed(7)
        # The entry the dispatch would have taken, resuming the waiter.
        assert sim._heap == [(3.0, seq + 1, proc._resume, event)]
        processed = sim.events_processed
        sim.run()
        assert got == [7] and sim.events_processed == processed + 1

    def test_two_waiters_keep_the_dispatch(self, sim):
        """Siblings of one dispatch: the first callback runs with the
        in-place advance blocked, the last with the horizon back."""
        event = sim.event()
        horizons = []

        def body():
            yield event
            horizons.append(sim._horizon)

        sim.spawn(body())
        sim.spawn(body())
        sim.run()
        event.succeed()
        assert [entry[2:] for entry in sim._heap] == [(Event._dispatch,
                                                       event)]
        sim.run()
        assert horizons == [-inf, inf]

    def test_fail_without_waiter_raises_once(self, sim):
        event = sim.event()
        event.fail(ValueError("unheard"))
        assert len(sim._heap) == 1
        with pytest.raises(ValueError, match="unheard"):
            sim.run()
        sim.timeout(1.0)
        assert sim.run() == 1.0

    def test_timeout_calls_lone_callback_from_its_entry(self, sim):
        fired = []
        Timeout(sim, 2.0).callbacks.append(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]
        assert sim.events_processed == 1 and sim._seq == 1

    def test_negative_sleep_blocked_rejected(self, sim):
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))

        def body():
            yield from thread.sleep_blocked(-1.0)

        thread.start(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_max_events_counts_heap_entries_exactly(self, sim):
        """Under a budget nothing advances in place: through parks,
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
        while sim.peek() is not None:
            processed = sim.events_processed
            sim.run(max_events=3)
            assert sim.events_processed - processed == min(
                3, sim.events_processed - processed + len(sim._heap))
            assert sim.events_processed + len(sim._heap) == sim._seq
        assert lock.stats.contentions > 0 and pool.free_processors == 2


class TestFailureSurfacing:
    def test_process_failure_with_waiter_fails_once(self, sim):
        """A crashing child must fail its Process event exactly once
        and not re-raise into the dispatch loop (the double-surfacing
        bug): the waiting parent sees the error, the run completes,
        and later events still fire."""
        def child():
            yield Timeout(sim, 1.0)
            raise RuntimeError("child crashed")

        def parent():
            try:
                yield sim.spawn(child())
            except RuntimeError as exc:
                return f"handled {exc}"

        proc = sim.spawn(parent())
        late = []
        Timeout(sim, 10.0).callbacks.append(lambda e: late.append(sim.now))
        sim.run()
        assert proc.value == "handled child crashed"
        assert late == [10.0]

    def test_unwaited_process_failure_surfaces(self, sim):
        """With nobody waiting, a crashed process must not vanish."""
        def body():
            yield Timeout(sim, 1.0)
            raise RuntimeError("nobody listening")

        sim.spawn(body())
        with pytest.raises(RuntimeError, match="nobody listening"):
            sim.run()

    def test_unwaited_failure_does_not_kill_alive_flag_twice(self, sim):
        def body():
            yield Timeout(sim, 1.0)
            raise RuntimeError("boom")

        proc = sim.spawn(body())
        with pytest.raises(RuntimeError):
            sim.run()
        assert not proc.alive
        assert proc.triggered

    def test_handled_failure_does_not_resurface(self, sim):
        """Once a waiter consumes the failure, draining the heap again
        must not re-raise it."""
        def child():
            yield Timeout(sim, 1.0)
            raise RuntimeError("consumed")

        def parent():
            try:
                yield sim.spawn(child())
            except RuntimeError:
                pass

        sim.spawn(parent())
        sim.run()
        sim.timeout(5.0)
        assert sim.run() == 6.0


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
        assert sim.peek() == 13.0  # the later wake stays queued
        sim.run()
        assert log == [3.0, 13.0]

    def test_advance_up_to_until_inclusive(self, sim):
        log = []
        start_spender(sim, [4.0, 4.0], log)
        sim.run(until=8.0)
        assert log == [4.0, 8.0]  # a wake at `until` is still due
        assert sim.now == 8.0

    def test_advances_count_as_events(self, sim, heap_only):
        def count_events():
            engine = Simulator()
            start_spender(engine, [1.0] * 5)
            Timeout(engine, 100.0)
            engine.run()
            return engine.events_processed, engine.now, engine._seq

        events_on, now_on, pushes_on = count_events()
        heap_only()
        events_off, now_off, pushes_off = count_events()
        assert (events_on, now_on) == (events_off, now_off)
        assert pushes_on < pushes_off  # the advances skipped the heap

    def test_max_events_budget_makes_no_advance(self, sim):
        log = []
        start_spender(sim, [1.0] * 5, log)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        # Start + two heap wakes: exactly the heap path's position.
        assert log == [1.0, 2.0]
        assert sim.now == 2.0 and sim.peek() == 3.0
        sim.run()
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_no_advance_outside_run(self, sim):
        thread = CpuBoundThread(ProcessorPool(sim, 1, 0.0))
        thread.charge(2.0)
        assert thread.spend() == (2.0,)
        assert sim.now == 0.0
