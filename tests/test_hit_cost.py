"""A host-independent guard on the cost of a buffer hit.

Wall-clock timings of the hit path spread too widely on a shared host
to catch a 10 % regression; the number of Python-level calls an access
makes does not spread at all. Each system runs a miss-free tablescan on
one :class:`~repro.runtime.native.NativeRuntime` thread twice, at two
sizes, under ``sys.settrace``; the difference of the "call" events over
the difference of the accesses is the per-access count, with the run's
fixed set-up and join cancelled out. The same difference over the calls
whose code is a generator's counts the generator frames an access makes.
"""

from __future__ import annotations

import inspect
import sys
import threading

import pytest

from repro.harness.experiment import ExperimentConfig, run_experiment

#: Upper bounds on the calls per access, just above the counts of a
#: hit served inline by a plain-call request, with no settle step and
#: no ``spend`` on native (pgBatPre 2.606, pgclock 3.11, pg2Q 5.11: the
#: request, the hit, the lock's acquire and release, which read the
#: clock without a call, and the policy op; pgBatLossy 2.575, pgBat's
#: own hit, which reads the queue length once); one more Python call
#: per access breaks each of them.
MAX_CALLS = {"pgBatPre": 2.64, "pgclock": 3.15, "pg2Q": 5.15,
             "pgBatLossy": 2.61}

#: Upper bound on the generator frames per access of a hit that never
#: waits (pgBatPre 0.09 with its commits, pgclock and pg2Q 0.03): a hit
#: served through a generator reads 1 or more.
MAX_GENERATOR_CALLS = 0.1


def _calls(system: str, accesses: int) -> tuple:
    """(calls, generator calls) of one run."""
    calls = generator_calls = 0

    def tracer(frame, event, arg):
        nonlocal calls, generator_calls
        if event == "call":
            calls += 1
            if frame.f_code.co_flags & inspect.CO_GENERATOR:
                generator_calls += 1

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
    return calls, generator_calls


def calls_per_access(system: str, small: int = 1_000,
                     large: int = 3_000) -> tuple:
    """(calls, generator calls) per access of ``system``'s hits."""
    few, many = _calls(system, small), _calls(system, large)
    return tuple((b - a) / (large - small) for a, b in zip(few, many))


@pytest.fixture(scope="module")
def per_access():
    return {system: calls_per_access(system)
            for system in ("pgBatPre", "pgclock", "pg2Q", "pgBatLossy")}


@pytest.fixture(scope="module")
def counts(per_access):
    return {system: calls for system, (calls, _) in per_access.items()}


def test_batched_hit_costs_no_more_calls_than_a_lock_free_hit(counts):
    assert counts["pgBatPre"] <= counts["pgclock"], counts


def test_lock_per_hit_costs_no_more_calls_than_before(counts):
    assert counts["pg2Q"] <= MAX_CALLS["pg2Q"], counts


def test_lock_per_hit_makes_no_generator_frame(per_access):
    assert per_access["pg2Q"][1] <= MAX_GENERATOR_CALLS, per_access


@pytest.mark.parametrize("system", ["pgBatPre", "pgclock", "pgBatLossy"])
def test_unlocked_hit_costs_no_more_calls_than_before(counts, system):
    assert counts[system] <= MAX_CALLS[system], counts


@pytest.mark.parametrize("system", ["pgBatPre", "pgclock", "pgBatLossy"])
def test_unlocked_hit_makes_no_generator_frame(per_access, system):
    assert per_access[system][1] <= MAX_GENERATOR_CALLS, per_access
