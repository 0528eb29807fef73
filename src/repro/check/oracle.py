"""Differential oracle: replay one run's arrivals through two systems.

The paper's central correctness claim (§III-A) is that batching only
*defers* replacement bookkeeping: "the order in which the batched
operations are executed does not change", so a BP-Wrapper system must
make exactly the decisions its unbatched twin makes. The oracle turns
that claim into an executable check:

1. **Record** — run the configuration multi-threaded with a
   :class:`~repro.check.checker.CorrectnessChecker` attached, capturing
   the global page-arrival order (and validating the lock protocol and
   policy invariants along the way).
2. **Replay** — feed the identical arrival sequence, single-threaded
   and cold, through two systems (by default the direct ``pg2Q`` and
   the batched ``pgBat``). Replaying removes scheduling as a variable:
   any divergence is a logic bug, not an interleaving artifact.
3. **Compare** — the hit/miss stream, the eviction-victim stream, and
   the post-flush resident set must match *exactly*. Equality holds
   even with evictions, because the miss path commits the thread's
   queued history *before* the policy picks a victim
   (:meth:`~repro.core.bpwrapper.ReplacementHandler.acquire_for_miss`),
   so both systems consult identical policy state at every decision
   point.

The hidden ``inject_reorder`` knob reverses each batch at drain time in
the candidate replay — a deliberate protocol violation used as a
mutation canary: the oracle must flag it (CI asserts a non-zero exit),
proving the comparison has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.check.checker import Arrival, CorrectnessChecker
from repro.core.fifoqueue import AccessQueue
from repro.harness.systems import SystemBuild, build_system
from repro.hardware.machines import MachineSpec
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator
from repro.workloads.registry import make_workload

__all__ = ["ReplayResult", "OracleVerdict", "record_arrivals",
           "replay_arrivals", "differential_check", "resolve_capacity"]


@dataclass(frozen=True)
class ReplayResult:
    """Decision streams from one single-threaded replay."""

    system: str
    hits: Tuple[bool, ...]
    evictions: Tuple[Hashable, ...]
    resident: frozenset
    stale_entries: int


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of one differential comparison."""

    equivalent: bool
    baseline: str
    candidate: str
    n_arrivals: int
    n_evictions: int
    #: Arrival index of the first hit/miss disagreement, if any.
    first_divergence: Optional[int]
    detail: str

    def __str__(self) -> str:
        status = "EQUIVALENT" if self.equivalent else "DIVERGED"
        return (f"{status}: {self.baseline} vs {self.candidate} over "
                f"{self.n_arrivals} arrivals "
                f"({self.n_evictions} evictions) — {self.detail}")


def resolve_capacity(config) -> int:
    """The buffer capacity ``run_experiment`` would use for ``config``."""
    if config.buffer_pages is not None:
        return config.buffer_pages
    return config.resolved_buffer_pages(
        make_workload(config.workload, seed=config.seed,
                      **config.workload_kwargs))


def record_arrivals(config, checker: Optional[CorrectnessChecker] = None
                    ) -> List[Arrival]:
    """Run ``config`` under a checker and return its arrival record.

    The run itself is verified as a side effect: lock-protocol or
    policy-invariant violations raise out of this call.
    """
    from repro.harness.experiment import run_experiment
    if checker is None:
        checker = CorrectnessChecker()
    if checker.arrivals is None:
        raise ValueError("record_arrivals needs record_arrivals=True")
    run_experiment(config, checker=checker)
    return checker.arrivals


def replay_arrivals(system: str, arrivals: Sequence[Arrival],
                    capacity: int, machine: MachineSpec,
                    policy_name: Optional[str] = None,
                    queue_size: int = 64, batch_threshold: int = 32,
                    policy_kwargs: Optional[dict] = None,
                    inject_reorder: bool = False) -> ReplayResult:
    """Feed ``arrivals`` through a cold ``system``, single-threaded.

    One simulated thread issues every access in global order through
    ONE slot. Collapsing the recorded threads onto a single queue is
    what makes the equivalence *exact*: with one queue, every commit
    (threshold, queue-full, or miss path) drains the whole deferred
    history before any eviction decision, so no queued hit can go
    stale. Per-thread queues would reintroduce cross-queue staleness —
    a concurrency artifact the multi-threaded checked run covers, not
    a property of the batching logic under test here.
    """
    sim = Simulator()
    build: SystemBuild = build_system(
        system, sim, capacity, machine, policy_name=policy_name,
        queue_size=queue_size, batch_threshold=batch_threshold,
        policy_kwargs=policy_kwargs)
    manager = build.manager
    policy = manager.policy

    evictions: List[Hashable] = []
    original_on_miss = policy.on_miss

    def recording_on_miss(key):
        victim = original_on_miss(key)
        if victim is not None:
            evictions.append(victim)
        return victim

    policy.on_miss = recording_on_miss  # type: ignore[method-assign]

    pool = ProcessorPool(sim, 1, 0.0)
    thread = CpuBoundThread(pool, name="replayer")
    slot = build.handler.new_slot(thread, 0)
    queues = build.handler.queues([slot])
    if inject_reorder:
        for queue in queues:
            _reverse_drain(queue)

    hits: List[bool] = []

    def body():
        for arrival in arrivals:
            hit = yield from manager.access(slot, arrival.page,
                                            is_write=arrival.is_write)
            hits.append(hit)
        # Commit all deferred history so final policy state is
        # comparable against an unbatched system's.
        yield from build.handler.flush(slot)

    thread.start(body())
    sim.run()
    return ReplayResult(
        system=system,
        hits=tuple(hits),
        evictions=tuple(evictions),
        resident=frozenset(policy.resident_keys()),
        stale_entries=sum(queue.total_stale for queue in queues),
    )


def _reverse_drain(queue: AccessQueue) -> None:
    """Mutation canary: commit each batch in reverse enqueue order."""
    original_drain = queue.drain

    def reversed_drain(_original=original_drain):
        entries = _original()
        entries.reverse()
        return entries

    queue.drain = reversed_drain  # type: ignore[method-assign]


def differential_check(config, baseline: str = "pg2Q",
                       candidate: str = "pgBat",
                       arrivals: Optional[Sequence[Arrival]] = None,
                       inject_reorder: bool = False) -> OracleVerdict:
    """Record ``config``'s arrivals and replay them through two systems.

    Pass ``arrivals`` to reuse one recording across several pairs.
    ``inject_reorder`` sabotages only the *candidate* replay.
    """
    if arrivals is None:
        arrivals = record_arrivals(config)
    capacity = resolve_capacity(config)

    def one(system: str, reorder: bool) -> ReplayResult:
        return replay_arrivals(
            system, arrivals, capacity, config.machine,
            policy_name=config.policy_name,
            queue_size=config.queue_size,
            batch_threshold=config.batch_threshold,
            policy_kwargs=config.policy_kwargs or None,
            inject_reorder=reorder)

    base = one(baseline, False)
    cand = one(candidate, inject_reorder)
    return compare_replays(base, cand, len(arrivals))


def compare_replays(base: ReplayResult, cand: ReplayResult,
                    n_arrivals: int) -> OracleVerdict:
    """Assemble the verdict for one baseline/candidate replay pair."""
    problems: List[str] = []
    first_divergence: Optional[int] = None
    if base.hits != cand.hits:
        first_divergence = next(
            index for index, (a, b) in enumerate(zip(base.hits, cand.hits))
            if a != b)
        problems.append(
            f"hit/miss streams diverge at arrival {first_divergence} "
            f"({base.system}: "
            f"{'hit' if base.hits[first_divergence] else 'miss'}, "
            f"{cand.system}: "
            f"{'hit' if cand.hits[first_divergence] else 'miss'})")
    if base.evictions != cand.evictions:
        index = next(
            (i for i, (a, b) in enumerate(
                zip(base.evictions, cand.evictions)) if a != b),
            min(len(base.evictions), len(cand.evictions)))
        problems.append(
            f"eviction streams diverge at eviction {index} "
            f"(lengths {len(base.evictions)} vs {len(cand.evictions)})")
    if base.resident != cand.resident:
        only_base = base.resident - cand.resident
        only_cand = cand.resident - base.resident
        problems.append(
            f"post-flush resident sets differ "
            f"({len(only_base)} pages only in {base.system}, "
            f"{len(only_cand)} only in {cand.system})")
    if problems:
        detail = "; ".join(problems)
    else:
        detail = (f"{sum(base.hits)} hits, "
                  f"{len(base.hits) - sum(base.hits)} misses, "
                  f"identical streams")
    return OracleVerdict(
        equivalent=not problems,
        baseline=base.system,
        candidate=cand.system,
        n_arrivals=n_arrivals,
        n_evictions=len(base.evictions),
        first_divergence=first_divergence,
        detail=detail,
    )
