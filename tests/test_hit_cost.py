"""A host-independent guard on the cost of a buffer hit.

Wall-clock timings of the hit path spread too widely on a shared host
to catch a 10 % regression; the number of Python-level calls an access
makes does not spread at all. Each system runs a miss-free tablescan on
one :class:`~repro.runtime.native.NativeRuntime` thread twice, at two
sizes, under ``sys.settrace``; the difference of the "call" events over
the difference of the accesses is the per-access count, with the run's
fixed set-up and join cancelled out.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment

#: Upper bounds on the calls per access, just above the counts with
#: every fixed cost an attribute add (pgBatPre 3.76, pgclock 5.11,
#: pg2Q 19.11); one more Python call per access breaks each of them.
MAX_CALLS = {"pgBatPre": 3.85, "pgclock": 5.15, "pg2Q": 19.15}


def _calls(system: str, accesses: int) -> int:
    calls = 0

    def tracer(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    config = ExperimentConfig(
        system=system, workload="tablescan",
        workload_kwargs={"n_tables": 4, "pages_per_table": 100},
        runtime="native", n_processors=1, n_threads=1,
        target_accesses=accesses, warmup_fraction=0.0, seed=42,
        max_sim_time_us=60_000_000.0)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run_experiment(config)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    assert result.misses == 0
    assert result.total_accesses == accesses
    return calls


def calls_per_access(system: str, small: int = 1_000,
                     large: int = 3_000) -> float:
    return (_calls(system, large) - _calls(system, small)) / (large - small)


@pytest.fixture(scope="module")
def counts():
    return {system: calls_per_access(system)
            for system in ("pgBatPre", "pgclock", "pg2Q")}


def test_batched_hit_costs_no_more_calls_than_a_lock_free_hit(counts):
    assert counts["pgBatPre"] <= counts["pgclock"], counts


def test_lock_per_hit_costs_no_more_calls_than_before(counts):
    assert counts["pg2Q"] <= MAX_CALLS["pg2Q"], counts


@pytest.mark.parametrize("system", ["pgBatPre", "pgclock"])
def test_unlocked_hit_costs_no_more_calls_than_before(counts, system):
    assert counts[system] <= MAX_CALLS[system], counts
