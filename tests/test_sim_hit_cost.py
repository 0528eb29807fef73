"""A host-independent guard on the cost of a simulated buffer hit.

The simulator's twin of ``tests/test_hit_cost.py``. Each system runs
the ``fig6_hit`` configuration (dbt2 with 10 warehouses on the Altix
350, 16 processors, 32 threads, seed 42: a prewarmed pool the data
fits, so every access is a hit) twice, at two sizes, under
``sys.settrace``; the difference of the "call" events over the
difference of the accesses is the per-access count, with the run's
fixed set-up cancelled out. A generator resume is a call event, so the
same difference over the calls whose code is a generator counts the
generator frames an access passes through.

Only frames whose code lives in the ``repro`` package count, and
comprehension and generator-expression frames do not: CPython 3.12
inlines comprehensions, so counting them would make the same code read
differently on each interpreter. One untraced run of each system comes
first, so that no lazy import lands in only one of the two traced runs.
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

import repro
from repro.hardware.machines import ALTIX_350
from repro.harness.experiment import ExperimentConfig, run_experiment

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: Comprehensions (which CPython 3.12 runs inline in their caller's
#: frame) and generator expressions: left out of every count.
INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

#: Upper bounds on (calls, generator frames) per access, just above the
#: counts on CPython 3.11 (pg2Q 27.02 / 11.73, pgclock 9.39 / 4.08,
#: pgBatPre 5.59 / 1.63). pg2Q's modelled hit is one generator that
#: realizes its charge, takes the lock, commits its one entry in its
#: own frame and finishes the request; one more call per hit breaks
#: its bound. A resumed thread runs only its body's own frames, a
#: voluntary yield is one generator and the per-access quantum test is
#: inline: a frame wrapped around the body, resumed at every wake-up,
#: breaks every bound.
MAX_PER_ACCESS = {"pg2Q": (27.1, 11.8), "pgclock": (9.43, 4.12),
                  "pgBatPre": (5.63, 1.68)}


def _config(system: str, accesses: int) -> ExperimentConfig:
    return ExperimentConfig(
        system=system, workload="dbt2",
        workload_kwargs={"n_warehouses": 10}, machine=ALTIX_350,
        n_processors=16, target_accesses=accesses, seed=42)


def _calls(system: str, accesses: int) -> tuple:
    """(calls, generator calls, accesses) of one traced run."""
    calls = generator_calls = 0
    counted = {}

    def tracer(frame, event, arg):
        nonlocal calls, generator_calls
        if event == "call":
            code = frame.f_code
            kind = counted.get(code)
            if kind is None:
                kind = counted[code] = (
                    0 if not code.co_filename.startswith(PACKAGE)
                    or code.co_name in INLINED
                    else 2 if code.co_flags & inspect.CO_GENERATOR else 1)
            if kind:
                calls += 1
                generator_calls += kind - 1

    config = _config(system, accesses)
    sys.settrace(tracer)
    try:
        result = run_experiment(config)
    finally:
        sys.settrace(None)
    assert result.hit_ratio == 1.0
    return calls, generator_calls, result.total_accesses


def calls_per_access(system: str, small: int = 5_000,
                     large: int = 15_000) -> tuple:
    """(calls, generator calls) per access of ``system``'s hits."""
    run_experiment(_config(system, small))
    few, many = _calls(system, small), _calls(system, large)
    accesses = many[2] - few[2]
    return tuple((b - a) / accesses for a, b in zip(few[:2], many[:2]))


@pytest.fixture(scope="module")
def per_access():
    return {system: calls_per_access(system) for system in MAX_PER_ACCESS}


@pytest.mark.parametrize("system", sorted(MAX_PER_ACCESS))
def test_hit_costs_no_more_calls_than_before(per_access, system):
    assert per_access[system][0] <= MAX_PER_ACCESS[system][0], per_access


@pytest.mark.parametrize("system", sorted(MAX_PER_ACCESS))
def test_hit_passes_no_more_generator_frames_than_before(per_access,
                                                         system):
    assert per_access[system][1] <= MAX_PER_ACCESS[system][1], per_access
