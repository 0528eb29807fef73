"""Hypothesis-driven stress: random schedules through the full stack.

These generate small random scenarios — thread counts, CPU counts,
access patterns, wrapper parameters, system flavours — and run them
through the complete simulator, asserting only invariants that must
hold for *every* schedule. This is the test that catches engine-level
races (lost wakeups, double releases, frame leaks) that hand-written
scenarios miss.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bufmgr.tags import PageId
from repro.core.bpwrapper import ThreadSlot
from repro.harness.systems import build_system
from repro.hardware.costs import CostModel
from repro.hardware.machines import MachineSpec
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.simcore.rng import stream_rng


def tiny_machine() -> MachineSpec:
    return MachineSpec(
        name="StressTest", max_processors=4, processor_steps=(1, 2, 4),
        costs=CostModel(user_work_us=3.0, context_switch_us=0.7,
                        scheduler_quantum_us=50.0))


scenario = st.fixed_dictionaries({
    "system": st.sampled_from(
        ["pgclock", "pg2Q", "pgBat", "pgPre", "pgBatPre", "pgDist",
         "pgBatShared"]),
    "n_cpus": st.integers(min_value=1, max_value=4),
    "n_threads": st.integers(min_value=1, max_value=6),
    # At least 2 frames per thread: each thread can pin a page across a
    # blocking point, and a pool smaller than its pinners legitimately
    # errors out (PostgreSQL: "no unpinned buffers available").
    "capacity": st.integers(min_value=12, max_value=32),
    "n_pages": st.integers(min_value=2, max_value=64),
    "accesses_per_thread": st.integers(min_value=5, max_value=80),
    "queue_size": st.integers(min_value=1, max_value=8),
    "seed": st.integers(min_value=0, max_value=1000),
})


@settings(max_examples=60, deadline=None)
@given(scenario)
def test_random_schedules_preserve_invariants(params):
    sim = Simulator()
    machine = tiny_machine()
    threshold = max(1, params["queue_size"] // 2)
    build = build_system(
        params["system"], sim, params["capacity"], machine,
        queue_size=params["queue_size"], batch_threshold=threshold)
    manager = build.manager
    pool = ProcessorPool(sim, params["n_cpus"],
                         machine.costs.context_switch_us)
    completed = []

    def body(slot, rng):
        for _ in range(params["accesses_per_thread"]):
            slot.thread.charge(machine.costs.user_work_us
                               * rng.uniform(0.5, 1.5))
            page = PageId("s", rng.randrange(params["n_pages"]))
            yield from manager.access(slot, page,
                                      is_write=rng.random() < 0.2)
            yield from slot.thread.maybe_yield(
                machine.costs.scheduler_quantum_us)
        completed.append(slot.thread_id)

    for index in range(params["n_threads"]):
        thread = CpuBoundThread(pool, name=f"s{index}")
        slot = ThreadSlot(thread, index,
                          queue_size=params["queue_size"])
        rng = stream_rng(params["seed"], "stress", index)
        thread.start(body(slot, rng))
    sim.run(until=50_000_000.0)

    # 1. Every thread finished: no deadlock, no lost wakeup.
    assert sorted(completed) == list(range(params["n_threads"]))
    # 2. Pool bookkeeping is consistent.
    manager.check_invariants()
    # 3. All locks quiesced.
    for lock in build.handler.locks:
        assert not lock.held
        assert lock.queue_length == 0
    # 4. Access accounting adds up.
    expected = params["n_threads"] * params["accesses_per_thread"]
    assert manager.stats.accesses == expected
    assert manager.stats.hits + manager.stats.misses == expected
    # 5. No CPU leaked.
    assert pool.free_processors <= pool.n_processors


@settings(max_examples=20, deadline=None)
@given(scenario)
def test_random_schedules_are_deterministic(params):
    def run_once() -> tuple:
        sim = Simulator()
        machine = tiny_machine()
        build = build_system(
            params["system"], sim, params["capacity"], machine,
            queue_size=params["queue_size"],
            batch_threshold=max(1, params["queue_size"] // 2))
        pool = ProcessorPool(sim, params["n_cpus"],
                             machine.costs.context_switch_us)

        def body(slot, rng):
            for _ in range(params["accesses_per_thread"]):
                slot.thread.charge(machine.costs.user_work_us
                                   * rng.uniform(0.5, 1.5))
                page = PageId("s", rng.randrange(params["n_pages"]))
                yield from manager_access(slot, page)

        def manager_access(slot, page):
            hit = yield from build.manager.access(slot, page)
            return hit

        for index in range(params["n_threads"]):
            thread = CpuBoundThread(pool, name=f"s{index}")
            slot = ThreadSlot(thread, index,
                              queue_size=params["queue_size"])
            thread.start(body(slot, stream_rng(params["seed"], "d", index)))
        sim.run()
        return (sim.now, build.manager.stats.hits,
                build.lock.stats.contentions, sim.events_processed)

    assert run_once() == run_once()
