"""Builders for the tested systems: Table I as a table.

The first five rows are the paper's (``SYSTEM_NAMES``). The paper also
swaps LIRS and MQ in place of 2Q ("we do not observe significant
performance differences", §IV-A); pass ``policy_name`` to do the same.
Three comparators follow: ``pgDist`` (the §V-A distributed-lock
alternative: hash-partitioned buffer, one lock per partition),
``pgBatShared`` (the §III-A rejected alternative: one shared FIFO
queue) and ``pgBatLossy`` (the Caffeine-style descendant that drops
recordings instead of blocking). What differs between rows is the
handler class; each handler's ``build`` creates the locks, queues and
caches it needs, so nothing here branches on a system's name.

A row is the whole description of a system: its policy, handler and
the two Table I columns (``batching``, ``prefetch``). The queue knobs
S and T of Tables II–III join it at build time, in the pool's one
:class:`~repro.control.state.ControlState`; the ``mp`` backend reads
the same row (:mod:`repro.runtime.mp`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Type

from repro.bufmgr.manager import BufferManager
from repro.control.state import TRACE_DEFAULTS, ControlState
from repro.core.bpwrapper import (BatchedHandler, DirectHandler,
                                  LockFreeHitHandler, ReplacementHandler)
from repro.core.lossy import LossyBatchedHandler
from repro.core.shared_queue import SharedQueueHandler
from repro.db.storage import DiskArray
from repro.errors import ConfigError
from repro.hardware.cpucache import MetadataCacheModel
from repro.hardware.machines import MachineSpec
from repro.harness.distributed import DistributedHandler
from repro.policies.registry import make_policy
from repro.runtime.base import MutexLock, Runtime

__all__ = ["SYSTEM_NAMES", "SystemSpec", "SystemBuild", "system_spec",
           "build_system"]


@dataclass(frozen=True)
class SystemSpec:
    """What distinguishes one tested system from another."""

    name: str
    policy_name: str
    #: For an unbatched row, the handler of its *default* policy: a swapped
    #: policy's own lock discipline decides (``DirectHandler.suited_to``).
    handler: Type[ReplacementHandler]
    #: Record hits in per-thread FIFO queues and commit in batches.
    batching: bool
    #: Warm the processor cache just before requesting the lock.
    prefetch: bool
    #: Human-readable Table I row content.
    enhancement: str

    @property
    def lock_free_hit(self) -> bool:
        """A hit takes no lock: the clock family's own discipline."""
        return issubclass(self.handler, LockFreeHitHandler)


_TABLE = tuple(
    SystemSpec(*row) for row in (
        ("pgclock", "clock", LockFreeHitHandler, False, False, "None"),
        ("pg2Q", "2q", DirectHandler, False, False, "None"),
        ("pgBat", "2q", BatchedHandler, True, False, "Batching"),
        ("pgPre", "2q", DirectHandler, False, True, "Prefetching"),
        ("pgBatPre", "2q", BatchedHandler, True, True,
         "Batching and Prefetching"),
        ("pgDist", "2q", DistributedHandler, False, False,
         "Distributed locks (SV-A comparator)"),
        ("pgBatShared", "2q", SharedQueueHandler, True, False,
         "Batching via a shared queue (SIII-A alternative)"),
        ("pgBatLossy", "2q", LossyBatchedHandler, True, False,
         "Lossy batching (Caffeine-style descendant)"),
    ))
_ROWS = {row.name.lower(): row for row in _TABLE}

#: The five systems of Table I, in the paper's order.
SYSTEM_NAMES = tuple(row.name for row in _TABLE[:5])


def system_spec(name: str, policy_name: Optional[str] = None
                ) -> SystemSpec:
    """The Table I row for ``name``, optionally swapping the policy."""
    row = _ROWS.get(name.lower())
    if row is None:
        raise ConfigError(f"unknown system {name!r}; available: "
                          f"{', '.join(spec.name for spec in _TABLE)}")
    return replace(row, policy_name=policy_name or row.policy_name)


@dataclass
class SystemBuild:
    """Everything one experiment needs from a constructed system; the
    lock, cache model and control state are the handler's."""

    spec: SystemSpec
    manager: BufferManager

    @property
    def handler(self) -> ReplacementHandler:
        return self.manager.handler

    @property
    def lock(self) -> MutexLock:
        return self.handler.lock

    @property
    def metadata_cache(self) -> MetadataCacheModel:
        return self.handler.cache

    @property
    def control(self) -> ControlState:
        """The pool's mutable tuning knobs; attach a controller here to
        tune the pool while it runs."""
        return self.handler.control

    def controller_summary(self) -> Optional[dict]:
        """The controller's decision trail plus where the threshold
        converged; None for an uncontrolled pool."""
        control = self.control
        if control.controller is None:
            return None
        return dict(control.controller.to_dict(),
                    batch_threshold=control.batch_threshold)


def build_system(name: str, sim: "Runtime", capacity: int,
                 machine: MachineSpec,
                 policy_name: Optional[str] = None,
                 queue_size: int = TRACE_DEFAULTS.queue_size,
                 batch_threshold: int = TRACE_DEFAULTS.batch_threshold,
                 disk: Optional[DiskArray] = None,
                 policy_kwargs: Optional[dict] = None,
                 simulate_bucket_locks: bool = False) -> SystemBuild:
    """Construct a ready-to-run buffer manager for system ``name``."""
    spec = system_spec(name, policy_name=policy_name)
    if not spec.batching:
        # Queue geometry belongs to batching; unbatched rows ignore it.
        queue_size = TRACE_DEFAULTS.queue_size
        batch_threshold = TRACE_DEFAULTS.batch_threshold
    kwargs = policy_kwargs or {}
    # One ControlState per pool, shared by its handler: the build's
    # single mutation point for every runtime-tunable knob.
    handler = spec.handler.build(
        sim, spec.name,
        lambda pages: make_policy(spec.policy_name, pages, **kwargs),
        capacity, machine.costs,
        ControlState(queue_size, batch_threshold, spec.prefetch,
                     policy_name=spec.policy_name))
    manager = BufferManager(sim, capacity, handler.policy, handler,
                            machine.costs, disk=disk,
                            simulate_bucket_locks=simulate_bucket_locks)
    return SystemBuild(spec=spec, manager=manager)
