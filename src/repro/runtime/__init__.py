"""Runtime abstraction layer — one core, three execution backends.

:mod:`repro.runtime.base` defines the narrow protocols the BP-Wrapper
core is written against (``MutexLock``, ``ThreadContext``,
``Runtime``); the deterministic discrete-event
:class:`~repro.simcore.engine.Simulator` implements them itself and
:mod:`repro.runtime.native` runs the identical code on real OS threads
for wall-clock contention measurements (``--runtime native``).
:mod:`repro.runtime.mp` runs worker processes over a shared frame table
(:mod:`repro.runtime.shm`) for multi-core scaling (``--runtime mp``).

This package must not import :mod:`repro.simcore` — the dependency
points the other way — so that ``repro.core``/``repro.policies``
(which import ``base``) stay simulator-free (see
``tests/test_layering.py``).
"""

from repro.runtime.base import (MutexLock, Runtime, ThreadContext, Wait,
                                WaitEvent, Waits, drive)

__all__ = [
    "MutexLock",
    "Runtime",
    "ThreadContext",
    "Wait",
    "WaitEvent",
    "Waits",
    "drive",
]
