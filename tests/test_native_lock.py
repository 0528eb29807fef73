"""Tests for the OS-thread lock's accounting (:class:`NativeLock`).

Every ``LockStats`` field but the two ``TryLock()`` counters is written
by the holder alone, while it holds the lock: these tests pin down what
each path counts, that a contended request counts when it is granted,
and that no increment is lost when the interpreter switches threads as
often as it can.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import LockError
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.trace import TraceRecorder
from repro.runtime.native import NativePool, NativeRuntime, NativeThread


def make(n_threads=2):
    runtime = NativeRuntime()
    pool = NativePool(runtime, 2)
    threads = [NativeThread(pool, f"t{index}", seed=index)
               for index in range(n_threads)]
    return runtime, runtime.create_lock("L"), threads


def in_os_thread(target):
    """Run ``target`` on a fresh OS thread and return what it returned."""
    out = []
    worker = threading.Thread(target=lambda: out.append(target()))
    worker.start()
    worker.join(10.0)
    assert not worker.is_alive()
    return out[0]


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_uncontended_pair_counts_one_request():
    _, lock, (a, _) = make()
    assert tuple(lock.acquire(a)) == ()
    assert lock.held and lock.owner is a
    lock.release(a)
    assert not lock.held and lock.owner is None
    stats = lock.stats
    assert (stats.requests, stats.acquisitions, stats.contentions) == (1, 1, 0)
    assert stats.total_hold_us >= 0.0
    assert stats.max_hold_us == stats.window_max_hold_us == stats.total_hold_us
    assert stats.total_wait_us == 0.0


def test_reacquire_by_owner_raises():
    _, lock, (a, _) = make()
    lock.acquire(a)
    with pytest.raises(LockError, match="re-acquired"):
        lock.acquire(a)
    assert lock.stats.requests == 1


def test_release_by_non_owner_raises():
    _, lock, (a, b) = make()
    with pytest.raises(LockError, match="owned by None"):
        lock.release(a)
    lock.acquire(a)
    with pytest.raises(LockError, match="owned by 't0'"):
        lock.release(b)
    assert lock.owner is a
    lock.release(a)


def test_try_success_is_a_request_and_a_try_attempt():
    _, lock, (a, _) = make()
    assert lock.try_acquire(a)
    assert lock.owner is a
    lock.release(a)
    stats = lock.stats
    assert (stats.requests, stats.acquisitions) == (1, 1)
    assert (stats.try_attempts, stats.try_failures) == (1, 0)


def test_failed_try_is_not_a_request():
    _, lock, (a, b) = make()
    lock.acquire(a)
    assert in_os_thread(lambda: lock.try_acquire(b)) is False
    assert lock.owner is a
    lock.release(a)
    stats = lock.stats
    assert (stats.requests, stats.acquisitions) == (1, 1)
    assert (stats.try_attempts, stats.try_failures) == (1, 1)


def test_contended_request_counts_when_granted():
    _, lock, (a, b) = make()

    def hold_briefly():
        lock.acquire(b)
        time.sleep(0.002)
        lock.release(b)

    lock.acquire(a)
    waiter = threading.Thread(target=hold_briefly)
    waiter.start()
    try:
        wait_until(lambda: lock.queue_length == 1)
        time.sleep(0.002)
        # b is blocked: its request is not counted until it is granted.
        assert lock.stats.requests == 1
    finally:
        lock.release(a)
        waiter.join(10.0)
    assert not waiter.is_alive()
    stats = lock.stats
    assert (stats.requests, stats.acquisitions, stats.contentions) == (2, 2, 1)
    assert stats.total_wait_us > 0.0
    assert stats.total_hold_us >= stats.max_hold_us > 0.0
    assert lock.queue_length == 0 and not lock.held


def test_no_increment_is_lost_under_constant_thread_switches():
    _, lock, threads = make()
    pairs = 20_000

    def hammer(thread):
        for index in range(pairs):
            # Half the pairs start with a TryLock(), as a batch commit
            # does; a failed one falls back to the blocking Lock().
            if not (index % 2 and lock.try_acquire(thread)):
                lock.acquire(thread)
            lock.release(thread)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(thread,))
                   for thread in threads]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    stats = lock.stats
    total = pairs * len(threads)
    assert stats.requests == stats.acquisitions == total
    assert stats.try_attempts == total // 2
    assert 0 <= stats.contentions <= total
    assert lock.queue_length == 0 and lock.owner is None


def test_observed_native_run_keeps_runtime_microsecond_spans():
    """Lock spans are on ``runtime.now``'s clock: microseconds since the
    runtime was built, inside the run, and one hold per acquisition."""
    observer = Observer(trace=TraceRecorder(), metrics=MetricsRegistry())
    config = ExperimentConfig(
        system="pg2Q", workload="tablescan",
        workload_kwargs={"n_tables": 4, "pages_per_table": 100},
        runtime="native", n_processors=2, n_threads=2,
        target_accesses=4_000, warmup_fraction=0.0, seed=42,
        max_sim_time_us=60_000_000.0)
    result = run_experiment(config, observer=observer)
    assert result.warmup_end_us == 0.0
    end_us = result.elapsed_us
    spans = [(name, start, dur)
             for name, _, _, start, dur, _ in observer.trace.iter_spans()
             if name.startswith(("hold:", "wait:"))]
    holds = [span for span in spans if span[0].startswith("hold:")]
    assert holds
    for name, start, dur in spans:
        assert 0.0 <= start <= start + dur <= end_us, (name, start, dur)
    stats = result.lock_stats
    (lock_name,) = {name.split(":", 1)[1] for name, _, _ in holds}
    hold_us = observer.metrics.histogram(f"lock.{lock_name}.hold_us")
    assert hold_us.count == stats.acquisitions == len(holds)
    # A hold in seconds rather than microseconds would read ~1e-7 here.
    assert stats.total_hold_us / stats.acquisitions > 0.01

