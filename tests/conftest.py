"""Shared fixtures for the test suite."""

from __future__ import annotations

from heapq import heappop
from math import inf

import pytest

from repro.hardware.costs import CostModel
from repro.hardware.machines import MachineSpec
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Process, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def heap_only(monkeypatch):
    """Call the returned function to switch the engine's in-place
    advance off for the rest of the test: the horizon then reads -inf
    whatever ``Simulator.run`` sets, so every charge goes through the
    heap."""
    def switch_off() -> None:
        monkeypatch.setattr(Simulator, "_horizon",
                            property(lambda self: -inf,
                                     lambda self, value: None),
                            raising=False)
    return switch_off


@pytest.fixture
def at():
    """``at(sim, delay, callback)`` pushes one bare heap entry that
    calls ``callback()`` at ``sim.now + delay``: a timer with no
    thread behind it."""
    def push(sim: Simulator, delay: float, callback) -> None:
        sim._schedule(delay, callback)
    return push


@pytest.fixture
def step():
    """``step(sim)`` pops and runs the single next heap entry, outside
    ``Simulator.run``: the horizon stays -inf, so nothing advances in
    place and one step is exactly one heap entry. A process entry is
    resumed (``Process._resume``, the run loop's step), a callback
    entry called."""
    def pop_one(sim: Simulator) -> None:
        when, _seq, target = heappop(sim._heap)
        sim._now = when
        sim._events_processed += 1
        if isinstance(target, Process):
            target._resume()
        else:
            target()
    return pop_one


@pytest.fixture
def costs() -> CostModel:
    return CostModel()


@pytest.fixture
def tiny_machine() -> MachineSpec:
    """A 4-processor machine with small costs for fast, exact tests."""
    return MachineSpec(
        name="TinyTest",
        max_processors=4,
        processor_steps=(1, 2, 4),
        costs=CostModel(user_work_us=10.0, context_switch_us=1.0,
                        scheduler_quantum_us=100.0),
    )


def make_pool(sim: Simulator, n: int = 2,
              ctx: float = 0.0) -> ProcessorPool:
    return ProcessorPool(sim, n, context_switch_us=ctx)


def make_thread(pool: ProcessorPool, name: str = "t") -> CpuBoundThread:
    return CpuBoundThread(pool, name=name)
