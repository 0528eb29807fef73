"""Tests for the lossy-batching variant (Caffeine-style descendant)."""

from __future__ import annotations

import pytest

from repro.analysis.hitratio import replay, replay_lossy
from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import ThreadSlot
from repro.core.lossy import LossyBatchedHandler
from repro.errors import ConfigError
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.systems import build_system, system_spec
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.lru import LRUPolicy
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock
from repro.workloads.base import merged_trace
from repro.workloads.registry import make_workload


def lossy_rig(sim, capacity=8, queue_size=4, batch_threshold=2):
    costs = CostModel(user_work_us=1.0)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
    cache = MetadataCacheModel(costs)
    control = ControlState(queue_size, batch_threshold, prefetch=False)
    handler = LossyBatchedHandler(policy, lock, cache, costs, control)
    manager = BufferManager(sim, capacity, policy, handler, costs)
    return manager, policy, lock, handler


class TestLossyHandler:
    def test_never_blocks_on_hits(self, sim):
        # Hold the lock forever from another thread; the lossy worker
        # must finish all its hits anyway, dropping overflow.
        manager, policy, lock, handler = lossy_rig(sim, queue_size=4,
                                                   batch_threshold=2)
        pages = [PageId("t", block) for block in range(8)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 2, 0.0)
        holder = CpuBoundThread(pool, "holder")
        worker = CpuBoundThread(pool, "worker")
        slot = ThreadSlot(worker, 0, queue_size=4)
        finished = []

        def holder_body():
            yield from lock.acquire(holder)
            yield from holder.run_for(10_000.0)
            lock.release(holder)

        def worker_body():
            yield from worker.run_for(1.0)
            for _ in range(5):
                for page in pages:
                    yield from manager.access(slot, page)
            finished.append(True)

        holder.start(holder_body())
        worker.start(worker_body())
        sim.run()
        assert finished
        assert lock.stats.contentions == 0  # never blocked
        # Queue filled (4 kept) and the remaining 36 hits were dropped.
        assert handler.dropped_accesses == 36

    def test_commits_when_lock_free(self, sim):
        manager, policy, lock, handler = lossy_rig(sim, queue_size=4,
                                                   batch_threshold=2)
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
        assert handler.dropped_accesses == 0
        assert slot.queue.total_committed == 4
        assert list(policy.lru_order())[-4:] == pages[:4]

    def test_system_registration(self, tiny_machine):
        spec = system_spec("pgBatLossy")
        assert "Lossy" in spec.enhancement
        sim = Simulator()
        build = build_system("pgBatLossy", sim, 64, tiny_machine)
        assert isinstance(build.handler, LossyBatchedHandler)

    def test_observed_run_publishes_batch_commits(self):
        from repro.obs import MetricsRegistry, Observer
        observer = Observer(metrics=MetricsRegistry(), trace=None)
        result = run_experiment(ExperimentConfig(
            system="pgBatLossy", workload="tablescan",
            workload_kwargs={"n_tables": 4, "pages_per_table": 40},
            n_processors=2, n_threads=4, target_accesses=2_000, seed=5),
            observer=observer)
        counters = result.metrics["counters"]
        assert counters["bpwrapper.batch_commits"] > 0

    def test_zero_contention_at_scale(self):
        config = ExperimentConfig(
            system="pgBatLossy", workload="dbt1",
            workload_kwargs={"scale": 0.15}, n_processors=16,
            target_accesses=20_000, seed=11)
        result = run_experiment(config)
        assert result.lock_stats.contentions == 0
        assert result.throughput_tps > 0


class TestReplayLossy:
    def test_drop_rate_zero_equals_exact(self):
        workload = make_workload("dbt1", seed=3, scale=0.2)
        trace = merged_trace(workload, 20_000)
        capacity = workload.total_pages // 10
        exact = replay("2q", trace, capacity=capacity)
        lossless = replay_lossy("2q", trace, capacity=capacity,
                                drop_rate=0.0)
        assert lossless.hits == exact.hits

    def test_moderate_loss_barely_moves_hit_ratio(self):
        # The Caffeine bet: losing hit history is almost free.
        workload = make_workload("dbt1", seed=3, scale=0.2)
        trace = merged_trace(workload, 30_000)
        capacity = workload.total_pages // 10
        exact = replay("2q", trace, capacity=capacity).hit_ratio
        lossy = replay_lossy("2q", trace, capacity=capacity,
                             drop_rate=0.25, seed=5).hit_ratio
        assert lossy == pytest.approx(exact, abs=0.015)

    def test_total_loss_degrades(self):
        # Dropping ALL hit history turns LRU into FIFO-ish behaviour:
        # measurably worse on a skewed trace.
        workload = make_workload("dbt1", seed=3, scale=0.2)
        trace = merged_trace(workload, 30_000)
        capacity = workload.total_pages // 20
        exact = replay("lru", trace, capacity=capacity).hit_ratio
        blind = replay_lossy("lru", trace, capacity=capacity,
                             drop_rate=1.0).hit_ratio
        assert blind < exact

    def test_validation(self):
        with pytest.raises(ConfigError):
            replay_lossy("lru", [], capacity=4, drop_rate=1.5)
