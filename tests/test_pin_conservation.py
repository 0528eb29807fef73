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

import pytest

from repro.bufmgr.descriptors import BufferDesc
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.runtime.native import NativeRuntime

PAIRS = 50_000


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_racing_pin_unpin_pairs_conserve_the_count(fast_switching):
    desc = BufferDesc(0)
    errors = []
    start = threading.Barrier(2)

    def worker():
        try:
            start.wait()
            for _ in range(PAIRS):
                desc.pin()
                desc.unpin()
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
