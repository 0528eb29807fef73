"""Builders for the paper's five tested systems (Table I).

============  ===========  =========================
Name          Replacement  Enhancement
============  ===========  =========================
``pgclock``   Clock        None (lock-free hits)
``pg2Q``      2Q           None
``pgBat``     2Q           Batching
``pgPre``     2Q           Prefetching
``pgBatPre``  2Q           Batching and Prefetching
============  ===========  =========================

The paper also swaps LIRS and MQ in place of 2Q ("we do not observe
significant performance differences", §IV-A); pass ``policy_name`` to
do the same. A bonus ``pgDist`` system implements the §V-A
distributed-lock alternative (hash-partitioned buffer, one lock per
partition) for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bufmgr.manager import BufferManager
from repro.control.state import ControlState
from repro.core.bpwrapper import (BatchedHandler, DirectHandler,
                                  LockFreeHitHandler, ReplacementHandler)
from repro.core.config import BPConfig
from repro.db.storage import DiskArray
from repro.errors import ConfigError
from repro.hardware.cpucache import MetadataCacheModel
from repro.hardware.machines import MachineSpec
from repro.policies.base import LockDiscipline
from repro.policies.registry import make_policy
from repro.runtime.base import MutexLock, Runtime
from repro.sync.stats import LockStats

__all__ = [
    "SYSTEM_NAMES",
    "SystemSpec",
    "SystemBuild",
    "system_spec",
    "build_system",
]

#: The five systems of Table I, in the paper's order.
SYSTEM_NAMES = ("pgclock", "pg2Q", "pgBat", "pgPre", "pgBatPre")


@dataclass(frozen=True)
class SystemSpec:
    """What distinguishes one tested system from another."""

    name: str
    policy_name: str
    bp_config: BPConfig
    #: Human-readable Table I row content.
    enhancement: str


def system_spec(name: str, policy_name: Optional[str] = None,
                queue_size: int = 64,
                batch_threshold: int = 32) -> SystemSpec:
    """The Table I spec for ``name``, optionally swapping the policy."""
    canonical = {n.lower(): n for n in SYSTEM_NAMES}
    key = canonical.get(name.lower())
    if key is None and name.lower() not in ("pgdist", "pgbatshared",
                                            "pgbatlossy"):
        raise ConfigError(
            f"unknown system {name!r}; available: "
            f"{', '.join(SYSTEM_NAMES)} (+ pgDist, pgBatShared, "
            f"pgBatLossy)")
    if key == "pgclock":
        return SystemSpec("pgclock", policy_name or "clock",
                          BPConfig.baseline(), "None")
    advanced = policy_name or "2q"
    if key == "pg2Q":
        return SystemSpec("pg2Q", advanced, BPConfig.baseline(), "None")
    if key == "pgBat":
        return SystemSpec("pgBat", advanced,
                          BPConfig.batching_only(queue_size, batch_threshold),
                          "Batching")
    if key == "pgPre":
        return SystemSpec("pgPre", advanced, BPConfig.prefetching_only(),
                          "Prefetching")
    if key == "pgBatPre":
        return SystemSpec("pgBatPre", advanced,
                          BPConfig.full(queue_size, batch_threshold),
                          "Batching and Prefetching")
    if name.lower() == "pgbatlossy":
        # Caffeine-style descendant: drop recordings instead of blocking.
        return SystemSpec("pgBatLossy", advanced,
                          BPConfig.batching_only(queue_size,
                                                 batch_threshold),
                          "Lossy batching (Caffeine-style descendant)")
    if name.lower() == "pgbatshared":
        # The SIII-A rejected alternative: one shared FIFO queue.
        return SystemSpec("pgBatShared", advanced,
                          BPConfig.batching_only(queue_size,
                                                 batch_threshold),
                          "Batching via a shared queue (SIII-A "
                          "alternative)")
    # pgDist: distributed-lock comparator (see build_system).
    return SystemSpec("pgDist", advanced, BPConfig.baseline(),
                      "Distributed locks (SV-A comparator)")


@dataclass
class SystemBuild:
    """Everything one experiment needs from a constructed system."""

    spec: SystemSpec
    manager: BufferManager
    lock: MutexLock
    metadata_cache: MetadataCacheModel
    handler: ReplacementHandler
    #: The pool's mutable tuning knobs (shared with ``handler``);
    #: attach a controller here to tune the pool while it runs.
    control: Optional[ControlState] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def lock_stats(self) -> LockStats:
        """The pool's replacement-lock statistics: one lock's live
        counters, or a merged copy for multi-lock handlers."""
        merged = getattr(self.handler, "merged_lock_stats", None)
        if callable(merged):
            return merged()
        return self.lock.stats

    def controller_summary(self) -> Optional[dict]:
        """The controller's decision trail plus where the threshold
        converged; None for an uncontrolled pool."""
        control = self.control
        if control is None or control.controller is None:
            return None
        return dict(control.controller.to_dict(),
                    batch_threshold=control.batch_threshold)


def build_system(name: str, sim: "Runtime", capacity: int,
                 machine: MachineSpec,
                 policy_name: Optional[str] = None,
                 queue_size: int = 64, batch_threshold: int = 32,
                 disk: Optional[DiskArray] = None,
                 policy_kwargs: Optional[dict] = None,
                 simulate_bucket_locks: bool = False) -> SystemBuild:
    """Construct a ready-to-run buffer manager for system ``name``."""
    spec = system_spec(name, policy_name=policy_name,
                       queue_size=queue_size,
                       batch_threshold=batch_threshold)
    if spec.name == "pgDist":
        from repro.harness.distributed import build_distributed_system
        return build_distributed_system(sim, capacity, machine,
                                        policy_name=spec.policy_name,
                                        disk=disk,
                                        policy_kwargs=policy_kwargs)
    costs = machine.costs
    policy = make_policy(spec.policy_name, capacity,
                         **(policy_kwargs or {}))
    lock = sim.create_lock(name=f"replacement-{spec.name}",
                           grant_cost_us=costs.lock_grant_us,
                           try_cost_us=costs.try_lock_us)
    cache = MetadataCacheModel(costs)
    # One ControlState per pool, shared by its handler: the build's
    # single mutation point for every runtime-tunable knob.
    control = ControlState.from_config(spec.bp_config,
                                       policy_name=spec.policy_name)
    extra: Dict[str, object] = {}
    if spec.name == "pgBatLossy":
        from repro.core.lossy import LossyBatchedHandler
        handler = LossyBatchedHandler(policy, lock, cache, costs,
                                      spec.bp_config, control=control)
        manager = BufferManager(sim, capacity, policy, handler, costs,
                                disk=disk,
                                simulate_bucket_locks=simulate_bucket_locks)
        return SystemBuild(spec=spec, manager=manager, lock=lock,
                           metadata_cache=cache, handler=handler,
                           control=control)
    if spec.name == "pgBatShared":
        from repro.core.shared_queue import SharedQueueHandler
        record_lock = sim.create_lock(name="shared-queue-record",
                                      grant_cost_us=costs.lock_grant_us,
                                      try_cost_us=costs.try_lock_us)
        handler: ReplacementHandler = SharedQueueHandler(
            policy, lock, cache, costs, spec.bp_config, record_lock,
            control=control)
        extra["record_lock"] = record_lock
    else:
        handler = _make_handler(spec, policy, lock, cache, costs, machine,
                                control)
    manager = BufferManager(sim, capacity, policy, handler, costs,
                            disk=disk,
                            simulate_bucket_locks=simulate_bucket_locks)
    return SystemBuild(spec=spec, manager=manager, lock=lock,
                       metadata_cache=cache, handler=handler,
                       control=control, extra=extra)


def _make_handler(spec: SystemSpec, policy, lock, cache, costs,
                  machine: MachineSpec,
                  control: ControlState) -> ReplacementHandler:
    config = spec.bp_config
    if config.batching:
        return BatchedHandler(policy, lock, cache, costs, config,
                              control=control)
    if policy.lock_discipline is LockDiscipline.LOCK_FREE_HIT:
        # Clock-family hits never touch the lock; prefetching would have
        # nothing to hide, so the flag is ignored (as in the paper,
        # where pgclock is stock PostgreSQL).
        return LockFreeHitHandler(policy, lock, cache, costs, config,
                                  control=control)
    return DirectHandler(policy, lock, cache, costs, config,
                         control=control)
