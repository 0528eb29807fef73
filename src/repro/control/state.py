"""Runtime-mutable buffer-pool control state.

Before this layer existed, ``batch_threshold``, ``queue_size``, the
prefetch flag and the policy name were frozen construction-time
literals, hand-plumbed through six call sites (``experiment.py``,
``systems.py``, ``macro.py``, ``serve/frontend.py``, ``cli.py`` and
``runtime/mp.py``). The paper's Fig. 8 shows the threshold/queue
trade-off is workload-dependent, so the knobs must be *runtime state*:
one mutable :class:`ControlState` per buffer pool, read by the
BP-Wrapper handlers at decision time and written by an optional
:class:`~repro.control.controller.Controller`.

Mutability boundaries, per knob:

=================  =====================================================
``batch_threshold``  Mutable at any commit boundary (handlers re-read
                     it on every Fig. 4 line-7 check).
``prefetch``         Mutable at any time (re-read per lock approach).
``queue_size``       Frozen geometry: the per-thread FIFO rings are
                     allocated at construction (and live in shared
                     memory under the mp backend), so it is recorded
                     here only as the clamp ceiling for the threshold.
=================  =====================================================

With no controller attached (the default) the state is initialized
from the build's :class:`~repro.core.config.BPConfig` and never
mutated, so every pre-refactor output is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "ControlDefaults",
    "ControlState",
    "SERVE_DEFAULTS",
    "TRACE_DEFAULTS",
    "bp_kwargs",
]


@dataclass(frozen=True)
class ControlDefaults:
    """A named (queue_size, batch_threshold) default pair.

    The two tiers intentionally ship different defaults; naming the
    pairs here makes the divergence a documented decision instead of
    two unrelated literals drifting apart.
    """

    queue_size: int
    batch_threshold: int


#: The paper's §IV-C evaluation defaults (queue 64, threshold 32 =
#: S/2). Used by the trace-replay tier (``ExperimentConfig``, ``cli
#: run``/``trace``): few long-lived back-ends replay long access
#: streams, so large queues amortize the most lock work per commit.
TRACE_DEFAULTS = ControlDefaults(queue_size=64, batch_threshold=32)

#: The serving/macro tier defaults (queue 16, threshold 8 — same S/2
#: ratio, quarter scale). Used by ``MacroConfig`` and ``ServeConfig``:
#: many short sessions fan out across pool shards, each session holds
#: one queue *per shard*, and queries hold page pins across operator
#: lifetimes — small queues bound both the per-session memory and how
#: stale the queued history can grow before it reaches the algorithm.
SERVE_DEFAULTS = ControlDefaults(queue_size=16, batch_threshold=8)


class ControlState:
    """Mutable tuning knobs owned by one buffer pool.

    Handlers hold a reference and read the live values at decision
    time; controllers mutate them through the ``set_*`` methods, which
    enforce the same invariants :meth:`BPConfig.validate` does.
    """

    __slots__ = ("queue_size", "batch_threshold", "prefetch",
                 "policy_name", "controller")

    def __init__(self, queue_size: int, batch_threshold: int,
                 prefetch: bool, policy_name: str = "",
                 controller=None) -> None:
        if queue_size < 1:
            raise ConfigError(
                f"queue_size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self.batch_threshold = batch_threshold
        self.prefetch = prefetch
        self.policy_name = policy_name
        #: Optional :class:`~repro.control.controller.Controller`; None
        #: (the default) means every knob keeps its construction value.
        self.controller = controller
        self.set_batch_threshold(batch_threshold)

    @classmethod
    def from_config(cls, config,
                    policy_name: str = "") -> "ControlState":
        """The state a :class:`~repro.core.config.BPConfig` literal
        would have pinned. (Duck-typed — importing the core layer here
        would close an import cycle: ``core.bpwrapper`` reads this
        module, and the layering tests import each side alone.)"""
        return cls(queue_size=config.queue_size,
                   batch_threshold=config.batch_threshold,
                   prefetch=config.prefetching,
                   policy_name=policy_name)

    def set_batch_threshold(self, value: int) -> None:
        """Set the threshold, clamping invariants to hard errors."""
        if not 1 <= value <= self.queue_size:
            raise ConfigError(
                f"batch_threshold must be in [1, queue_size="
                f"{self.queue_size}], got {value}")
        self.batch_threshold = value

    def to_dict(self) -> dict:
        """JSON-able snapshot (controller reporting; deterministic)."""
        return {
            "queue_size": self.queue_size,
            "batch_threshold": self.batch_threshold,
            "prefetch": self.prefetch,
            "policy_name": self.policy_name,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ControlState S={self.queue_size} "
                f"T={self.batch_threshold} prefetch={self.prefetch} "
                f"policy={self.policy_name!r} "
                f"controller={self.controller!r}>")


def bp_kwargs(config) -> dict:
    """The shared buffer-pool plumbing kwargs, built once.

    Every runner (experiment, macro, serve front-end, CLI)
    used to copy the same ``policy_name=... queue_size=...
    batch_threshold=...`` triple by hand; this is the one construction
    path they now share. ``config`` is any config object exposing the
    three attributes (``ExperimentConfig``, ``MacroConfig``,
    ``ServeConfig``).
    """
    return {
        "queue_size": config.queue_size,
        "batch_threshold": config.batch_threshold,
        "policy_name": config.policy_name,
    }
