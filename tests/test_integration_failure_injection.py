"""Failure-injection and stress tests.

These exercise the ugly paths: pages invalidated between enqueue and
commit, eviction racing queued hits, frame recycling (ABA), fully
pinned pools inside the DES, long mixed runs with invariant checks, and
mp worker processes that die, raise or overrun their wall budget.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import random
import signal
import threading
import time

import pytest

from repro.bufmgr.manager import BufferManager
from repro.bufmgr.tags import PageId
from repro.control.state import ControlState
from repro.core.bpwrapper import BatchedHandler, ThreadSlot
from repro.db.storage import DiskArray
from repro.errors import SimulationError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.hardware.machines import ALTIX_350
from repro.harness import experiment
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.obs import Observer, TraceRecorder
from repro.policies.lru import LRUPolicy
from repro.policies.twoq import TwoQPolicy
from repro.runtime import shm
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.sync.locks import SimLock
from repro.workloads.registry import make_workload


def make_rig(sim, capacity=16, queue_size=8, batch_threshold=4,
             policy_cls=TwoQPolicy):
    costs = CostModel(user_work_us=1.0, context_switch_us=0.5)
    policy = policy_cls(capacity)
    lock = SimLock(sim, grant_cost_us=costs.lock_grant_us,
                   try_cost_us=costs.try_lock_us)
    cache = MetadataCacheModel(costs)
    control = ControlState(queue_size, batch_threshold, prefetch=True)
    handler = BatchedHandler(policy, lock, cache, costs, control)
    manager = BufferManager(sim, capacity, policy, handler, costs)
    return manager, policy, lock


class TestInvalidationRaces:
    def test_invalidation_storm_between_commits(self, sim):
        """Random invalidations while wrapped threads run: the system
        must stay consistent and drop stale entries silently."""
        manager, policy, _ = make_rig(sim, capacity=32)
        pages = [PageId("t", block) for block in range(32)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 2, 0.5)
        rng = random.Random(3)
        slots = []

        def worker(slot):
            worker_rng = random.Random(slot.thread_id)
            for _ in range(300):
                page = pages[worker_rng.randrange(32)]
                if manager.lookup(page) is not None:
                    yield from manager.access(slot, page)
                yield from slot.thread.run_for(1.0)

        def chaos(thread):
            for _ in range(60):
                yield from thread.sleep_blocked(5.0)
                victim = pages[rng.randrange(32)]
                desc = manager.lookup(victim)
                if desc is not None and not desc.pinned:
                    manager.invalidate(victim)

        for index in range(3):
            thread = CpuBoundThread(pool, f"w{index}")
            slot = ThreadSlot(thread, index, queue_size=8)
            slots.append(slot)
            thread.start(worker(slot))
        chaos_thread = CpuBoundThread(pool, "chaos")
        chaos_thread.start(chaos(chaos_thread))
        sim.run()
        manager.check_invariants()
        assert sum(slot.stale_entries for slot in slots) > 0

    def test_frame_recycled_to_same_page_commits_fine(self, sim):
        """ABA: a queued entry's page is evicted and re-read into a
        different frame; the stale entry must not corrupt the policy."""
        manager, policy, lock = make_rig(sim, capacity=4, queue_size=8,
                                         batch_threshold=8,
                                         policy_cls=LRUPolicy)
        pages = [PageId("t", block) for block in range(4)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            yield from manager.access(slot, pages[0])   # queued
            manager.invalidate(pages[0])
            # Re-read page 0: lands in the freed frame, then the queue
            # commits during this miss. The stale entry for the *old*
            # incarnation actually matches tag-wise — which is fine:
            # the page is resident again, so replaying the hit is valid.
            yield from manager.access(slot, pages[0])

        thread.start(body())
        sim.run()
        manager.check_invariants()
        assert pages[0] in policy

    def test_other_threads_eviction_makes_entry_stale(self, sim):
        # A queued hit goes stale only if ANOTHER thread evicts the
        # page before commit (the thread's own misses commit first,
        # per Fig. 4's replacement_for_page_miss).
        manager, policy, _ = make_rig(sim, capacity=4, queue_size=8,
                                      batch_threshold=8,
                                      policy_cls=LRUPolicy)
        pages = [PageId("t", block) for block in range(4)]
        manager.warm_with(pages)
        pool = ProcessorPool(sim, 2, 0.0)
        recorder = CpuBoundThread(pool, "recorder")
        evictor = CpuBoundThread(pool, "evictor")
        slot_a = ThreadSlot(recorder, 0, queue_size=8)
        slot_b = ThreadSlot(evictor, 1, queue_size=8)

        def recorder_body():
            yield from manager.access(slot_a, pages[0])   # queued hit
            # Idle while the evictor churns the pool.
            yield from recorder.sleep_blocked(100.0)
            # This miss commits the (now stale) queue entry.
            yield from manager.access(slot_a, PageId("t", 99))

        def evictor_body():
            yield from evictor.run_for(1.0)
            for block in range(10, 18):
                yield from manager.access(slot_b, PageId("t", block))

        recorder.start(recorder_body())
        evictor.start(evictor_body())
        sim.run()
        manager.check_invariants()
        assert slot_a.stale_entries >= 1


class TestPinStress:
    def test_pinned_working_set_survives_pressure(self, sim):
        manager, policy, _ = make_rig(sim, capacity=8, policy_cls=LRUPolicy)
        protected = [PageId("t", block) for block in range(3)]
        manager.warm_with(protected)
        for page in protected:
            manager.lookup(page).pin()
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            for block in range(100, 160):
                yield from manager.access(slot, PageId("t", block))

        thread.start(body())
        sim.run()
        for page in protected:
            assert page in policy
            assert manager.lookup(page) is not None
        manager.check_invariants()

    def test_fully_pinned_pool_raises_cleanly(self, sim):
        manager, _, _ = make_rig(sim, capacity=2, policy_cls=LRUPolicy)
        pages = [PageId("t", 0), PageId("t", 1)]
        manager.warm_with(pages)
        for page in pages:
            manager.lookup(page).pin()
        pool = ProcessorPool(sim, 1, 0.0)
        thread = CpuBoundThread(pool)
        slot = ThreadSlot(thread, 0, queue_size=8)

        def body():
            yield from manager.access(slot, PageId("t", 99))

        from repro.errors import PolicyError
        thread.start(body())
        with pytest.raises(PolicyError):
            sim.run()


class TestLongMixedRun:
    @pytest.mark.parametrize("policy_cls", [LRUPolicy, TwoQPolicy])
    def test_invariants_hold_through_long_concurrent_run(self, sim,
                                                         policy_cls):
        manager, _, lock = make_rig(sim, capacity=24,
                                    policy_cls=policy_cls)
        pool = ProcessorPool(sim, 4, 0.5)
        slots = []

        def worker(slot):
            rng = random.Random(slot.thread_id * 17)
            for step in range(400):
                block = rng.randint(0, 60)
                yield from manager.access(slot, PageId("t", block))
                yield from slot.thread.run_for(0.5)
                if step % 50 == 0:
                    yield from slot.thread.yield_cpu()

        for index in range(6):
            thread = CpuBoundThread(pool, f"w{index}")
            slot = ThreadSlot(thread, index, queue_size=8)
            slots.append(slot)
            thread.start(worker(slot))
        sim.run()
        manager.check_invariants()
        assert manager.stats.accesses == 2400
        assert not lock.held
        assert lock.queue_length == 0
        # Every queued access was eventually committed or dropped.
        for slot in slots:
            assert len(slot.queue) == 0 or not slot.queue.full


class Crash(Exception):
    """The injected body failure."""


class TestRaisingBodyOnSim:
    def test_raise_after_in_place_advance_surfaces_once(self, monkeypatch):
        """A thread whose body raises right after its clock advanced in
        place: ``run_experiment`` raises that exception, once; nothing
        else runs after it (every queued event is later than the
        advanced clock, and the failure is due now); and the other
        threads, aborted where they were parked, unwound their pins."""
        spend = CpuBoundThread.spend
        advances = []
        after_crash = []
        builds = []

        def crashing_spend(self):
            if (len(advances) >= 40 and self.name != "backend-0"
                    and self.process.alive):
                after_crash.append(self.name)  # ran on, not unwound
            charged = self.pending_us > 0.0
            waits = spend(self)
            if charged and not waits and self.name == "backend-0":
                advances.append(self.sim.now)
                if len(advances) == 40:
                    raise Crash("injected after an in-place advance")
            return waits

        build_system = experiment.build_system

        def capture_build(*args, **kwargs):
            builds.append(build_system(*args, **kwargs))
            return builds[-1]

        monkeypatch.setattr(CpuBoundThread, "spend", crashing_spend)
        monkeypatch.setattr(experiment, "build_system", capture_build)
        config = ExperimentConfig(
            system="pg2Q", workload="tablescan",
            workload_kwargs={"n_tables": 4, "pages_per_table": 40},
            n_processors=4, n_threads=8, target_accesses=5000, seed=3)
        with pytest.raises(Crash) as raised:
            run_experiment(config)
        assert str(raised.value) == "injected after an in-place advance"
        assert len(advances) == 40
        assert after_crash == []
        builds[0].manager.check_invariants(expect_no_pins=True)

    def test_raise_on_a_read_frees_processors_and_disk(self, monkeypatch):
        """Six threads on two CPUs over a one-slot disk, one body
        raising on its 5th read. The others are closed where they are
        parked (ready queue, disk-slot queue, mid-service, lock queue)
        and hand on whatever a release already gave them: afterwards
        every processor is free, every disk idle with an empty queue,
        and no page is pinned."""
        read = DiskArray.read
        reads = []
        built = {"pool": [], "disk": [], "build": []}

        def crashing_read(self, thread):
            if thread.name == "backend-0":
                reads.append(thread.sim.now)
                if len(reads) == 5:
                    raise Crash("injected on the 5th read")
            return read(self, thread)

        def capture(name, factory):
            def create(*args, **kwargs):
                built[name].append(factory(*args, **kwargs))
                return built[name][-1]
            return create

        monkeypatch.setattr(DiskArray, "read", crashing_read)
        monkeypatch.setattr(Simulator, "create_pool",
                            capture("pool", Simulator.create_pool))
        monkeypatch.setattr(Simulator, "create_disk",
                            capture("disk", Simulator.create_disk))
        monkeypatch.setattr(experiment, "build_system",
                            capture("build", experiment.build_system))
        config = ExperimentConfig(
            system="pg2Q", workload="tablescan",
            workload_kwargs={"n_tables": 4, "pages_per_table": 40},
            machine=ALTIX_350.with_costs(disk_concurrency=1),
            n_processors=2, n_threads=6, buffer_pages=32, use_disk=True,
            background_writer=True, target_accesses=5000, seed=3)
        with pytest.raises(Crash, match="5th read"):
            run_experiment(config)
        (pool,), (disk,), (build,) = (built["pool"], built["disk"],
                                      built["build"])
        assert disk.reads > 5  # the others were mid-read too
        assert (pool.free_processors, pool.ready_count) == (2, 0)
        assert (disk._busy, disk.queue_depth) == (0, 0)
        assert not build.lock.held and build.lock.queue_length == 0
        build.manager.check_invariants(expect_no_pins=True)


# -- mp: worker death, failure and deadline ---------------------------------

DEV_SHM = pathlib.Path("/dev/shm")


class TestTraceRingOverflow:
    def test_overflowing_ring_keeps_the_newest_and_says_so(self, tmp_path):
        """A sim run whose trace overflows a 64-record ring: the run
        completes with exactly the unobserved result, and the recorder
        keeps the newest 64 records, counts the rest as dropped, and
        says so in its text summary."""
        config = ExperimentConfig(
            system="pgBatPre", workload="tablescan",
            workload_kwargs={"n_tables": 4, "pages_per_table": 40},
            n_processors=4, n_threads=8, target_accesses=5000, seed=3)
        recorder = TraceRecorder(ring_capacity=64)
        observed = run_experiment(config, observer=Observer(trace=recorder))
        assert observed.to_dict() == run_experiment(config).to_dict()
        assert recorder.dropped > 0
        document = json.loads(recorder.write_json(
            tmp_path / "trace.json").read_text())
        records = [event for event in document["traceEvents"]
                   if event["ph"] != "M"]
        assert len(records) == 64
        assert document["otherData"]["dropped_records"] == recorder.dropped
        assert (f"[ring buffer dropped {recorder.dropped} oldest records]"
                in recorder.flame_summary())


def _mp_config(**overrides) -> ExperimentConfig:
    """Two pgBat workers with a quota that outlasts every drill."""
    params = dict(system="pgBat", workload="tablescan", runtime="mp",
                  n_processors=2, target_accesses=10**9,
                  warmup_fraction=0.0, seed=23,
                  max_sim_time_us=60_000_000.0)
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.fixture
def leaves_nothing_behind():
    """The drill must end with no live child and no new /dev/shm entry."""
    before = set(os.listdir(DEV_SHM))
    yield
    assert multiprocessing.active_children() == []
    assert set(os.listdir(DEV_SHM)) - before == set()


@pytest.mark.skipif(not DEV_SHM.is_dir(), reason="needs /dev/shm")
@pytest.mark.usefixtures("leaves_nothing_behind")
class TestMpWorkerFailures:
    def test_killed_worker_fails_the_run_at_once(self):
        """SIGKILL one of two workers 1 s into a 60 s budget: the run
        raises within 10 s, naming the worker and its exit code."""
        killed = []

        def kill_worker_1():
            for process in multiprocessing.active_children():
                if process.name == "mp-worker-1":
                    os.kill(process.pid, signal.SIGKILL)
                    killed.append(process.pid)

        timer = threading.Timer(1.0, kill_worker_1)
        started = time.monotonic()
        timer.start()
        try:
            with pytest.raises(SimulationError) as raised:
                run_experiment(_mp_config())
        finally:
            timer.cancel()
        assert killed
        assert time.monotonic() - started < 10.0
        message = str(raised.value)
        assert "mp-worker-1" in message
        assert f"exited with code {-signal.SIGKILL}" in message

    def test_raising_body_fails_the_run_with_its_traceback(self):
        """Worker 1's stream raises mid-run (in the worker only — the
        workers close over the parent's workload object)."""
        workload = make_workload("tablescan", seed=23)
        stream, parent = workload.transaction_stream, os.getpid()

        def crashing_stream(index):
            for count, transaction in enumerate(stream(index)):
                if os.getpid() != parent and index == 1 and count == 50:
                    raise Crash("injected in worker 1")
                yield transaction

        workload.transaction_stream = crashing_stream
        started = time.monotonic()
        with pytest.raises(SimulationError) as raised:
            run_experiment(_mp_config(), workload)
        assert time.monotonic() - started < 10.0
        message = str(raised.value)
        assert message.startswith("mp worker mp-worker-1 failed:")
        assert "Crash: injected in worker 1" in message

    def test_wall_budget_names_every_worker_still_running(self):
        started = time.monotonic()
        with pytest.raises(SimulationError) as raised:
            run_experiment(_mp_config(max_sim_time_us=2_000_000.0))
        assert time.monotonic() - started < 10.0
        assert str(raised.value) == (
            "mp run exceeded its 2s wall budget; threads still alive: "
            "mp-worker-0, mp-worker-1 (possible deadlock)")

    def test_build_failing_after_the_segment_exists(self, monkeypatch):
        def crashing_prewarm(*args):
            raise Crash("injected after the segment was mapped")

        monkeypatch.setattr(shm, "_prewarm", crashing_prewarm)
        with pytest.raises(Crash, match="after the segment was mapped"):
            run_experiment(_mp_config())
