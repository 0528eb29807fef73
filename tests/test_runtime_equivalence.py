"""Cross-runtime equivalence: sim and native execute the same logic.

The runtime refactor claims the *identical* handler/manager/policy
code runs under the discrete-event simulator and on real OS threads.
For a single-threaded access sequence that claim is testable exactly:
with no concurrency, both backends must produce byte-identical
hit/miss streams, eviction sequences and final resident sets — the
sim's virtual clock and the native monotonic clock only affect
*timing*, never *logic*.

The technique mirrors the differential oracle's single-slot replay
(:mod:`repro.check.oracle`): one thread, one BP-Wrapper queue, a
deferred-history flush at the end so batched systems reach a
comparable final state.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List

import pytest

from repro.core.bpwrapper import ThreadSlot
from repro.db.storage import DiskArray
from repro.harness.systems import build_system
from repro.hardware.machines import ALTIX_350
from repro.runtime.base import drive
from repro.runtime.native import NativeDisk, NativeRuntime
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator

CAPACITY = 48
QUEUE_SIZE = 8
BATCH_THRESHOLD = 4

#: ALTIX with a sub-millisecond disk so native replays (which really
#: sleep through disk service) stay test-sized. The *model* is
#: unchanged in shape; only the service constant shrinks, identically
#: for both backends.
FAST_DISK_MACHINE = dataclasses.replace(
    ALTIX_350, costs=dataclasses.replace(ALTIX_350.costs,
                                         disk_read_us=120.0))


def _access_sequence(seed: int, length: int = 2500) -> List[tuple]:
    """Deterministic skewed accesses over ~3x the pool capacity."""
    rng = random.Random(seed)
    sequence = []
    for _ in range(length):
        if rng.random() < 0.7:
            page = ("hot", rng.randrange(CAPACITY // 2))
        else:
            page = ("cold", rng.randrange(CAPACITY * 3))
        sequence.append((page, rng.random() < 0.2))
    return sequence


def _instrument_evictions(manager) -> List[object]:
    evictions: List[object] = []
    original = manager.policy.on_miss

    def recording(key):
        victim = original(key)
        if victim is not None:
            evictions.append(victim)
        return victim

    manager.policy.on_miss = recording
    return evictions


def _body(build, slot, sequence, hits):
    manager = build.manager
    for page, is_write in sequence:
        hit = yield from manager.access(slot, page, is_write=is_write)
        hits.append(hit)
    yield from build.handler.flush(slot)


def _replay_sim(system: str, policy_name: str, sequence):
    sim = Simulator()
    build = build_system(system, sim, CAPACITY, ALTIX_350,
                         policy_name=policy_name, queue_size=QUEUE_SIZE,
                         batch_threshold=BATCH_THRESHOLD)
    evictions = _instrument_evictions(build.manager)
    pool = ProcessorPool(sim, 1, 0.0)
    thread = CpuBoundThread(pool, name="replayer")
    slot = ThreadSlot(thread, thread_id=0, queue_size=QUEUE_SIZE)
    hits: List[bool] = []
    thread.start(_body(build, slot, sequence, hits))
    sim.run()
    return hits, evictions, frozenset(build.manager.policy.resident_keys())


def _replay_native(system: str, policy_name: str, sequence):
    runtime = NativeRuntime()
    build = build_system(system, runtime, CAPACITY, ALTIX_350,
                         policy_name=policy_name, queue_size=QUEUE_SIZE,
                         batch_threshold=BATCH_THRESHOLD)
    evictions = _instrument_evictions(build.manager)
    pool = runtime.create_pool(1)
    thread = runtime.create_thread(pool, name="replayer", seed=0)
    slot = ThreadSlot(thread, thread_id=0, queue_size=QUEUE_SIZE)
    hits: List[bool] = []
    # Single-threaded: drive the generator body inline on this OS
    # thread; every native primitive blocks at call time and yields
    # nothing, so drive() runs it straight to completion.
    drive(_body(build, slot, sequence, hits))
    return hits, evictions, frozenset(build.manager.policy.resident_keys())


@pytest.mark.parametrize("system", ["pg2Q", "pgBat"])
@pytest.mark.parametrize("policy_name", ["2q", "lru"])
@pytest.mark.parametrize("seed", [5, 29])
def test_hit_and_eviction_streams_identical(system, policy_name, seed):
    sequence = _access_sequence(seed)
    sim_hits, sim_evictions, sim_resident = _replay_sim(
        system, policy_name, sequence)
    nat_hits, nat_evictions, nat_resident = _replay_native(
        system, policy_name, sequence)
    assert sim_hits == nat_hits
    assert sim_evictions == nat_evictions
    assert sim_resident == nat_resident
    # Sanity: the workload actually exercised both paths.
    assert any(sim_hits) and not all(sim_hits)
    assert sim_evictions


@pytest.mark.parametrize("seed", [5, 29])
def test_pgclock_lock_free_hit_streams_identical(seed):
    """The relaxed (lock-free) hit path is exactly ``on_hit`` when no
    concurrent mutation exists — a single-threaded native replay must
    match the sim byte for byte, reference bits included."""
    sequence = _access_sequence(seed)
    sim_hits, sim_evictions, sim_resident = _replay_sim(
        "pgclock", None, sequence)
    nat_hits, nat_evictions, nat_resident = _replay_native(
        "pgclock", None, sequence)
    assert sim_hits == nat_hits
    assert sim_evictions == nat_evictions
    assert sim_resident == nat_resident
    assert any(sim_hits) and not all(sim_hits)
    assert sim_evictions


def _replay_sim_with_disk(system: str, sequence):
    sim = Simulator()
    disk = DiskArray(sim, FAST_DISK_MACHINE.costs.disk_read_us,
                     FAST_DISK_MACHINE.costs.disk_concurrency, seed=3)
    build = build_system(system, sim, CAPACITY, FAST_DISK_MACHINE,
                         queue_size=QUEUE_SIZE,
                         batch_threshold=BATCH_THRESHOLD, disk=disk)
    evictions = _instrument_evictions(build.manager)
    pool = ProcessorPool(sim, 1, 0.0)
    thread = CpuBoundThread(pool, name="replayer")
    slot = ThreadSlot(thread, thread_id=0, queue_size=QUEUE_SIZE)
    hits: List[bool] = []
    thread.start(_body(build, slot, sequence, hits))
    sim.run()
    return hits, evictions, build.manager.stats, disk


def _replay_native_with_disk(system: str, sequence):
    runtime = NativeRuntime()
    # time_scale shrinks the *real* sleep, so thousands of misses stay
    # fast.
    disk = NativeDisk(runtime, FAST_DISK_MACHINE.costs.disk_read_us,
                      FAST_DISK_MACHINE.costs.disk_concurrency,
                      time_scale=0.01)
    build = build_system(system, runtime, CAPACITY, FAST_DISK_MACHINE,
                         queue_size=QUEUE_SIZE,
                         batch_threshold=BATCH_THRESHOLD, disk=disk)
    evictions = _instrument_evictions(build.manager)
    pool = runtime.create_pool(1)
    thread = runtime.create_thread(pool, name="replayer", seed=0)
    slot = ThreadSlot(thread, thread_id=0, queue_size=QUEUE_SIZE)
    hits: List[bool] = []
    drive(_body(build, slot, sequence, hits))
    return hits, evictions, build.manager.stats, disk


@pytest.mark.parametrize("system", ["pgBat", "pg2Q"])
def test_disk_streams_and_io_counts_identical(system):
    """With the disk attached, misses really block on I/O natively —
    yet the hit/eviction streams and read/write-back counts must equal
    the sim's exactly (the disk changes timing, never logic)."""
    sequence = _access_sequence(11, length=1200)
    sim_hits, sim_ev, sim_stats, sim_disk = _replay_sim_with_disk(
        system, sequence)
    nat_hits, nat_ev, nat_stats, nat_disk = _replay_native_with_disk(
        system, sequence)
    assert sim_hits == nat_hits
    assert sim_ev == nat_ev
    assert (sim_stats.accesses, sim_stats.hits, sim_stats.misses,
            sim_stats.write_backs) == \
           (nat_stats.accesses, nat_stats.hits, nat_stats.misses,
            nat_stats.write_backs)
    assert (sim_disk.reads, sim_disk.writes) == (nat_disk.reads,
                                                 nat_disk.writes)
    assert nat_disk.reads > 0 and nat_disk.writes > 0


def test_native_disk_bgwriter_run_matches_sim_counts():
    """Full-harness parity: sim and native runs with the disk model
    *and* a live bgwriter daemon agree on every policy-visible count.

    One backend thread keeps the access order deterministic; the
    bgwriter races the backend natively but only marks pages clean —
    it can shift *which* evictions pay a write-back (not asserted),
    never which pages hit, miss, or get evicted.
    """
    from repro.harness.experiment import ExperimentConfig, run_experiment

    base = ExperimentConfig(
        system="pgBat", workload="dbt2", machine=FAST_DISK_MACHINE,
        n_processors=1, n_threads=1, buffer_pages=200,
        target_accesses=4000, use_disk=True, background_writer=True,
        seed=13, max_sim_time_us=120_000_000.0)
    sim_result = run_experiment(base)
    nat_result = run_experiment(base.with_params(runtime="native"))
    assert (sim_result.total_accesses, sim_result.accesses,
            sim_result.hits, sim_result.misses, sim_result.disk_reads) == \
           (nat_result.total_accesses, nat_result.accesses,
            nat_result.hits, nat_result.misses, nat_result.disk_reads)
    # Both bgwriters must have actually run and found dirty pages.
    assert sim_result.misses > 0
    assert nat_result.bgwriter_cleaned > 0
    assert sim_result.bgwriter_cleaned > 0


def test_native_matches_sim_manager_stats():
    """Whole AccessStats agree, not just the externally visible streams."""
    sequence = _access_sequence(17)
    sim = Simulator()
    sim_build = build_system("pgBat", sim, CAPACITY, ALTIX_350,
                             queue_size=QUEUE_SIZE,
                             batch_threshold=BATCH_THRESHOLD)
    pool = ProcessorPool(sim, 1, 0.0)
    thread = CpuBoundThread(pool, name="replayer")
    slot = ThreadSlot(thread, thread_id=0, queue_size=QUEUE_SIZE)
    thread.start(_body(sim_build, slot, sequence, []))
    sim.run()

    runtime = NativeRuntime()
    nat_build = build_system("pgBat", runtime, CAPACITY, ALTIX_350,
                             queue_size=QUEUE_SIZE,
                             batch_threshold=BATCH_THRESHOLD)
    nat_pool = runtime.create_pool(1)
    nat_thread = runtime.create_thread(nat_pool, name="replayer", seed=0)
    nat_slot = ThreadSlot(nat_thread, thread_id=0, queue_size=QUEUE_SIZE)
    drive(_body(nat_build, nat_slot, sequence, []))

    sim_stats, nat_stats = sim_build.manager.stats, nat_build.manager.stats
    assert (sim_stats.accesses, sim_stats.hits, sim_stats.misses,
            sim_stats.evictions, sim_stats.write_accesses) == \
           (nat_stats.accesses, nat_stats.hits, nat_stats.misses,
            nat_stats.evictions, nat_stats.write_accesses)
    assert slot.queue.commits == nat_slot.queue.commits
    assert slot.stale_entries == nat_slot.stale_entries
