"""Transaction abstraction.

A :class:`Transaction` is what a workload hands to the experiment
driver: a kind label plus the ordered page accesses it performs. The
driver replays the accesses through the buffer manager on a simulated
thread, yielding the processor between transactions (PostgreSQL
back-ends hit syscalls there), and records a
:class:`TransactionOutcome` for throughput / response-time metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Sequence

from repro.bufmgr.tags import PageId
from repro.util import nearest_rank

__all__ = ["Transaction", "TransactionOutcome"]


@dataclass
class Transaction:
    """One unit of work: an ordered sequence of page accesses."""

    kind: str
    pages: Sequence[PageId]
    #: Extra off-CPU time after the transaction (client think time);
    #: the paper keeps systems overcommitted, so the default is zero.
    think_time_us: float = 0.0
    #: Multiplier on the machine's per-access user work. Sequential
    #: scans process a page much faster than OLTP predicate evaluation,
    #: which is exactly why TableScan is the paper's worst contention
    #: case.
    work_factor: float = 1.0
    #: Indices into ``pages`` that modify the page (inserts/updates).
    #: Dirty pages must be written back before their frame is reused.
    write_indices: FrozenSet[int] = frozenset()

    def __len__(self) -> int:
        return len(self.pages)

    def is_write(self, index: int) -> bool:
        return index in self.write_indices


@dataclass
class TransactionOutcome:
    """Completion record used by the metrics layer."""

    kind: str
    started_at_us: float
    finished_at_us: float
    accesses: int
    hits: int

    @property
    def response_time_us(self) -> float:
        return self.finished_at_us - self.started_at_us


@dataclass
class TransactionLog:
    """Accumulates outcomes for one run."""

    outcomes: List[TransactionOutcome] = field(default_factory=list)

    def record(self, outcome: TransactionOutcome) -> None:
        self.outcomes.append(outcome)

    @property
    def count(self) -> int:
        return len(self.outcomes)

    def throughput_tps(self, elapsed_us: float) -> float:
        if elapsed_us <= 0:
            return 0.0
        return self.count / (elapsed_us / 1_000_000.0)

    def _ordered_response_times_us(self) -> List[float]:
        return sorted(outcome.response_time_us for outcome in self.outcomes)

    def mean_response_time_us(self) -> float:
        if not self.outcomes:
            return 0.0
        # Summed in ascending order, not arrival order: float addition
        # is not associative, and every archived result was produced
        # from the sorted list.
        return sum(self._ordered_response_times_us()) / len(self.outcomes)

    def percentile_response_time_us(self, percentile: float) -> float:
        """Response-time percentile (nearest-rank), e.g. 95.0 for p95.

        Tail latency is where lock convoys show first — the mean the
        paper plots hides the worst victims.
        """
        if self.outcomes and not 0.0 < percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {percentile}")
        return nearest_rank(self._ordered_response_times_us(), percentile)

    def mix(self) -> dict:
        """Transaction counts by kind (diagnostics)."""
        counts: dict = {}
        for outcome in self.outcomes:
            counts[outcome.kind] = counts.get(outcome.kind, 0) + 1
        return counts
