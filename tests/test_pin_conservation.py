"""Pins are conserved when OS threads race on them.

A descriptor's pins are list entries (``BufferDesc.pins``), with no
header lock: each pin and unpin is one atomic list operation. These
tests run pin/unpin on real threads with the interpreter's switch
interval cut to a microsecond, so a thread is preempted between almost
any two bytecodes; a lost or doubled update would leave a residual pin
or raise on an unpin that found no pin.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.bufmgr.descriptors import BufferDesc
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime.native import NativeRuntime

PAIRS = 50_000
#: Pairs between explicit yields (``time.sleep(0)``). Without them two
#: threads on two CPUs traded places only a handful of times per run.
#: A yield hands the interpreter to the other thread, and the yielding
#: thread's wait to get it back forces a switch at an arbitrary point
#: of the other thread, often inside a pin or an unpin. Yields alternate
#: between holding a pin and holding none, so a copy the interrupted
#: thread took of the pin list is out of date when it resumes.
YIELD_EVERY = 256
#: Independent races per test run: a lost update one round misses, the
#: next one catches.
ROUNDS = 3


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_racing_pin_unpin_pairs_conserve_the_count(fast_switching):
    for _ in range(ROUNDS):
        _race_pin_unpin_pairs()


def _race_pin_unpin_pairs() -> None:
    desc = BufferDesc(0)
    errors = []
    start = threading.Barrier(2)

    def worker():
        try:
            start.wait()
            for index in range(PAIRS):
                desc.pin()
                if index % (2 * YIELD_EVERY) == YIELD_EVERY:
                    time.sleep(0)     # holding a pin
                desc.unpin()
                if index % (2 * YIELD_EVERY) == 0:
                    time.sleep(0)     # holding none
        except BaseException as error:  # pragma: no cover - the failure
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert desc.pin_count == 0


def test_two_thread_native_tablescan_leaves_no_pins(fast_switching,
                                                     monkeypatch):
    managers = []
    prepare = NativeRuntime.prepare

    def capture(runtime, manager):
        managers.append(manager)
        prepare(runtime, manager)

    monkeypatch.setattr(NativeRuntime, "prepare", capture)
    config = ExperimentConfig(
        system="pgBatPre", workload="tablescan",
        workload_kwargs={"n_tables": 4, "pages_per_table": 100},
        runtime="native", n_processors=2, n_threads=2,
        target_accesses=20_000, warmup_fraction=0.0, seed=42,
        max_sim_time_us=60_000_000.0)
    result = run_experiment(config)
    assert result.total_accesses >= 20_000
    assert result.misses == 0
    [manager] = managers
    manager.check_invariants(expect_no_pins=True)
