"""A host-independent guard on the cost of a simulator wake-up.

The simulator's twin of ``tests/test_hit_cost.py``. A heap entry that
holds a process is resumed by :meth:`Simulator.run` itself, which also
pushes the body's float delay inline, and :meth:`CpuBoundThread.wake`
pushes its own entry: a wake-up makes no ``Process._resume`` frame,
and ``Simulator._schedule`` runs only for a spawn or a timer. A
disk-less pgclock tablescan runs on the simulator twice, at two sizes,
under ``sys.settrace``; the call events of those three code objects,
differenced between the runs, cancel the fixed set-up (spawns, the
start-up stagger's timers).
"""

from __future__ import annotations

import collections
import sys

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.simcore.cpu import CpuBoundThread
from repro.simcore.engine import Process, Simulator

CODES = {
    Process._resume.__code__: "resume",
    Simulator._schedule.__code__: "schedule",
    CpuBoundThread.wake.__code__: "wake",
}


def _counts(accesses: int) -> collections.Counter:
    """Calls of each code in :data:`CODES`, and the run's accesses."""
    counts = collections.Counter()

    def tracer(frame, event, arg):
        if event == "call":
            name = CODES.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    # Four threads on two processors: the transaction boundaries'
    # voluntary yields park and wake, and the charges of threads that
    # overlap go through the heap as float delays.
    config = ExperimentConfig(
        system="pgclock", workload="tablescan",
        workload_kwargs={"n_tables": 4, "pages_per_table": 100},
        n_processors=2, n_threads=4, target_accesses=accesses,
        warmup_fraction=0.0, seed=42)
    sys.settrace(tracer)
    try:
        result = run_experiment(config)
    finally:
        sys.settrace(None)
    assert result.misses == 0
    counts["accesses"] = result.total_accesses
    return counts


@pytest.fixture(scope="module")
def delta():
    """Each count's difference between a 1,000- and a 3,000-access run."""
    few, many = _counts(1_000), _counts(3_000)
    return {name: many[name] - few[name]
            for name in ("resume", "schedule", "wake", "accesses")}


def test_the_run_wakes_parked_threads(delta):
    assert delta["accesses"] > 0 and delta["wake"] > 0, delta


def test_a_wake_up_makes_no_resume_frame(delta):
    assert delta["resume"] == 0, delta


def test_float_delays_push_inline(delta):
    # Float delays and wakes push inline; the spawns and the start-up
    # stagger's timers, the only calls left, cancel in the difference.
    assert delta["schedule"] == 0, delta
