"""Tests for the background writer daemon."""

from __future__ import annotations

import pytest

from repro.bufmgr.bgwriter import BackgroundWriter
from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import DirectHandler
from repro.db.storage import DiskArray
from repro.errors import ConfigError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.policies.lru import LRUPolicy
from repro.simcore.cpu import ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock


def build(sim, capacity=8):
    costs = CostModel(user_work_us=1.0, disk_read_us=50.0,
                      disk_concurrency=4)
    policy = LRUPolicy(capacity)
    lock = SimLock(sim, grant_cost_us=0.1, try_cost_us=0.1)
    cache = MetadataCacheModel(costs)
    handler = DirectHandler(policy, lock, cache, costs,
                            ControlState(64, 32, prefetch=False))
    disk = DiskArray(sim, costs.disk_read_us, costs.disk_concurrency)
    manager = BufferManager(sim, capacity, policy, handler, costs,
                            disk=disk)
    return manager, disk


class TestBackgroundWriter:
    def test_cleans_dirty_pages(self, sim):
        manager, disk = build(sim)
        pages = [PageId("t", block) for block in range(4)]
        manager.warm_with(pages)
        for page in pages:
            manager.lookup(page).dirty = True
        pool = ProcessorPool(sim, 2, 0.5)
        shared = {"stop": False}
        writer = BackgroundWriter(manager, sim.create_thread(pool, "bgwriter"),
                                  interval_us=100.0, batch_pages=2,
                                  shared_stop=shared)
        writer.start()

        def stopper():
            yield 1000.0
            shared["stop"] = True

        sim.spawn(stopper())
        sim.run()
        assert writer.pages_cleaned == 4
        assert disk.writes == 4
        for page in pages:
            assert not manager.lookup(page).dirty

    def test_skips_pinned_pages(self, sim):
        manager, disk = build(sim)
        page = PageId("t", 0)
        manager.warm_with([page])
        desc = manager.lookup(page)
        desc.dirty = True
        desc.pin()
        pool = ProcessorPool(sim, 2, 0.5)
        shared = {"stop": False}
        writer = BackgroundWriter(manager, sim.create_thread(pool, "bgwriter"),
                                  interval_us=100.0, shared_stop=shared)
        writer.start()

        def stopper():
            yield 500.0
            shared["stop"] = True

        sim.spawn(stopper())
        sim.run()
        assert writer.pages_cleaned == 0
        assert desc.dirty

    def test_stop_method(self, sim):
        manager, _ = build(sim)
        pool = ProcessorPool(sim, 1, 0.0)
        writer = BackgroundWriter(manager, sim.create_thread(pool, "bgwriter"),
                                  interval_us=50.0)
        process = writer.start()
        writer.stop()
        sim.run()
        assert not process.alive
        assert writer.sweeps <= 1

    def test_reduces_synchronous_write_backs_at_scale(self):
        from repro.harness.experiment import ExperimentConfig, run_experiment
        base = ExperimentConfig(
            system="pgclock", workload="dbt2",
            workload_kwargs={"n_warehouses": 8}, n_processors=4,
            buffer_pages=800, use_disk=True, target_accesses=15_000,
            seed=42)
        without = run_experiment(base)
        with_writer = run_experiment(
            base.with_params(background_writer=True))
        assert with_writer.bgwriter_cleaned > 0
        assert with_writer.write_backs < without.write_backs

    def test_validation(self, sim):
        costs = CostModel()
        policy = LRUPolicy(4)
        lock = SimLock(sim)
        cache = MetadataCacheModel(costs)
        handler = DirectHandler(policy, lock, cache, costs,
                                ControlState(64, 32, prefetch=False))
        manager = BufferManager(sim, 4, policy, handler, costs)  # no disk
        thread = sim.create_thread(ProcessorPool(sim, 1, 0.0), "bgwriter")
        with pytest.raises(ConfigError):
            BackgroundWriter(manager, thread)
        manager_with_disk, _ = build(Simulator())
        with pytest.raises(ConfigError):
            BackgroundWriter(manager_with_disk, thread, interval_us=0.0)
        with pytest.raises(ConfigError):
            BackgroundWriter(manager_with_disk, thread, batch_pages=0)
