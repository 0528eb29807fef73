"""Runtime abstraction layer — one core, two execution backends.

:mod:`repro.runtime.base` defines the narrow protocols the BP-Wrapper
core is written against (``Clock``, ``MutexLock``, ``ThreadContext``,
``RuntimeObserver``, ``Runtime``); the deterministic discrete-event
:class:`~repro.simcore.engine.Simulator` implements them itself and
:mod:`repro.runtime.native` runs the identical code on real OS threads
for wall-clock contention measurements (``--runtime native``).

This package must not import :mod:`repro.simcore` — the dependency
points the other way — so that ``repro.core``/``repro.policies``
(which import ``base``) stay simulator-free (see
``tests/test_layering.py``).
"""

from repro.runtime.base import (Clock, MutexLock, Runtime, RuntimeObserver,
                                ThreadContext, Wait, WaitEvent, Waits, drive)

__all__ = [
    "Clock",
    "MutexLock",
    "Runtime",
    "RuntimeObserver",
    "ThreadContext",
    "Wait",
    "WaitEvent",
    "Waits",
    "drive",
]
