"""Cross-implementation equivalence properties.

Strong correctness statements connecting independent implementations:
if two different code paths must agree by construction, comparing them
over hypothesis-generated traces catches bugs in either.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.bufmgr.manager import BufferManager
from repro.control.state import ControlState
from repro.core.bpwrapper import (BatchedHandler, DirectHandler, ThreadSlot)
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.clock import ClockPolicy
from repro.policies.gclock import GClockPolicy
from repro.policies.lru import LRUPolicy
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock

traces = st.lists(st.integers(min_value=0, max_value=25),
                  min_size=1, max_size=400)


class TestGClockReducesToClock:
    @settings(max_examples=60, deadline=None)
    @given(traces, st.integers(min_value=1, max_value=8))
    def test_unit_counter_gclock_is_clock(self, trace, capacity):
        """GCLOCK with counters capped at 1 must behave exactly like
        CLOCK: a hit sets the (now binary) counter, the sweep clears it,
        insertion starts it at 1 — the same automaton."""
        clock = ClockPolicy(capacity)
        gclock = GClockPolicy(capacity, initial_count=1, max_count=1)
        for block in trace:
            key = ("s", block)
            clock_result = clock.access(key)
            gclock_result = gclock.access(key)
            assert clock_result.hit == gclock_result.hit
            assert clock_result.evicted == gclock_result.evicted
        assert (set(clock.resident_keys())
                == set(gclock.resident_keys()))


def _run_system(handler_cls, control, trace, capacity):
    """Drive one single-threaded DES run; return the final LRU order."""
    sim = Simulator()
    costs = CostModel(user_work_us=1.0)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
    cache = MetadataCacheModel(costs)
    handler = handler_cls(policy, lock, cache, costs, control)
    manager = BufferManager(sim, capacity, policy, handler, costs)
    pool = ProcessorPool(sim, 1, 0.0)
    thread = CpuBoundThread(pool)
    slot = ThreadSlot(thread, 0, queue_size=control.queue_size)
    hits = []

    def body():
        for block in trace:
            hit = yield from manager.access(slot, ("s", block))
            hits.append(hit)
        # Flush any deferred history through a final miss on a page
        # outside the trace's key space (mirrors Fig. 4's miss commit).
        yield from manager.access(slot, ("flush", 10**9))

    thread.start(body())
    sim.run()
    return list(policy.lru_order()), hits


class TestBatchingPreservesAlgorithmState:
    @settings(max_examples=30, deadline=None)
    @given(traces, st.integers(min_value=4, max_value=10),
           st.integers(min_value=1, max_value=8))
    def test_single_threaded_batched_equals_direct(self, trace, capacity,
                                                   batch):
        """With one thread, batching only *defers* hit bookkeeping; the
        paper argues (SIII-A) that "the order in which the batched
        operations are executed does not change", so once the queue is
        flushed the wrapped algorithm's state must equal the unwrapped
        one's — except where an eviction decision fell between enqueue
        and commit.

        To make the equivalence exact we use a capacity larger than the
        key space (no evictions): then deferral is the ONLY difference,
        and the final LRU orders must match exactly.
        """
        key_space = 26
        capacity = key_space + 2  # no evictions possible
        direct_order, direct_hits = _run_system(
            DirectHandler, ControlState(64, 32, prefetch=False), trace,
            capacity)
        batched_order, batched_hits = _run_system(
            BatchedHandler,
            ControlState(batch, max(1, batch // 2), prefetch=False),
            trace, capacity)
        assert direct_hits == batched_hits
        assert direct_order == batched_order

    @settings(max_examples=20, deadline=None)
    @given(traces)
    def test_batched_hit_miss_counts_match_direct_with_evictions(
            self, trace):
        """Even with evictions, single-threaded hit/miss *outcomes*
        match: residency is decided at access time (the hash-table
        lookup), not at commit time, so deferring bookkeeping cannot
        change what was a hit."""
        capacity = 8
        _, direct_hits = _run_system(
            DirectHandler, ControlState(64, 32, prefetch=False), trace,
            capacity)
        _, batched_hits = _run_system(
            BatchedHandler,
            ControlState(4, 2, prefetch=False),
            trace, capacity)
        # Deferral may change *which* page an eviction picks (the
        # paper's accepted, negligible effect), which can flip later
        # hit/miss outcomes — but the first divergence can only happen
        # after the first eviction.
        first_divergence = next(
            (index for index, (a, b) in enumerate(
                zip(direct_hits, batched_hits)) if a != b),
            None)
        if first_divergence is not None:
            assert first_divergence >= capacity
