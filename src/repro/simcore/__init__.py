"""Discrete-event simulation kernel.

The kernel is a small, deterministic heap of wake-ups: a
:class:`~repro.simcore.engine.Simulator` owns a binary heap of
``(time, seq, callback)`` entries, each resuming exactly one thing, and
a :class:`~repro.simcore.engine.Process` drives a Python generator that
yields a float delay or parks until a wake. Simulated time only
advances between entries. An :class:`~repro.simcore.engine.Event` is
what several threads may park on (a miss's ``io_done``).

Determinism is a design requirement (the whole reproduction depends on
runs being repeatable): ties in the heap are broken by a monotonically
increasing sequence number, so two runs with the same seeds produce
identical traces.

Time is dimensionless inside the kernel; by convention the rest of the
package interprets one time unit as one **microsecond**.
"""

from repro.simcore.engine import Event, Process, Simulator
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.rng import split_seed, stream_rng

__all__ = [
    "Event",
    "Process",
    "Simulator",
    "ProcessorPool",
    "CpuBoundThread",
    "split_seed",
    "stream_rng",
]
