"""Processor-cache residency model for the replacement metadata.

What the paper's prefetching technique does physically: just before
requesting the lock, the thread *reads* the lock word and the list nodes
its queued pages will touch, so those cache lines are already resident
when the critical section runs (§III-B, Fig. 5). Reads are safe without
the lock; hardware coherence invalidates or refreshes the lines if
another thread modifies them first.

We model that with a **version counter per metadata region**: every
commit (a write burst under the lock) bumps the version, and a thread's
prefetch is *valid* only while the version it observed is still current.
This is a deliberately coarse MESI abstraction, but it captures the two
effects the paper depends on:

* a valid prefetch removes the warm-up stalls from the lock-holding
  period (making ``pgPre`` faster), and
* under heavy contention other threads commit between your prefetch and
  your lock grant, invalidating it — which is exactly why prefetching
  alone cannot keep a system scalable (§IV-D: "prefetching cannot reduce
  lock contention sufficiently, especially when more than four
  processors are used").
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError
from repro.hardware.costs import CostModel

__all__ = ["MetadataCacheModel"]


class MetadataCacheModel:
    """Tracks which thread last warmed the replacement metadata."""

    def __init__(self, costs: CostModel,
                 hardware_prefetcher_helps_critical_section: bool = False,
                 invalidation_per_commit: float = 0.25) -> None:
        # warmup_cost() is added to pending_us unchecked: with costs
        # and this fraction non-negative, it cannot go negative.
        if invalidation_per_commit < 0:
            raise ConfigError(
                f"invalidation_per_commit must be >= 0, "
                f"got {invalidation_per_commit}")
        self.costs = costs
        #: The paper notes the Xeon's hardware prefetchers cannot help the
        #: critical section (random pointer chasing); we keep the flag so a
        #: hypothetical machine where they could can be modelled in
        #: ablations.
        self.hw_prefetch_helps = hardware_prefetcher_helps_critical_section
        #: Fraction of a thread's prefetched lines invalidated by each
        #: intervening commit. A commit rewrites the list head and the
        #: committer's own nodes, not the whole structure, so staleness
        #: accumulates gradually — this is why prefetching still helps
        #: a little under contention but cannot fix it (§IV-D).
        self.invalidation_per_commit = invalidation_per_commit
        self._version = 0
        #: The version each thread's lines were last warmed at, by a
        #: prefetch or by its own commit.
        self._prefetched_version: Dict[int, int] = {}
        #: The version each thread's last :meth:`prefetch` armed: only
        #: uses armed by a prefetch count in the diagnostics below.
        self._prefetch_arms: Dict[int, int] = {}
        # Diagnostics.
        self.prefetches_issued = 0
        self.prefetches_valid_at_use = 0
        self.prefetches_invalidated = 0

    def prefetch(self, thread_id: int, n_pages: int) -> float:
        """Record a prefetch by ``thread_id`` covering ``n_pages`` nodes.

        Returns the CPU cost of issuing the prefetches (charged by the
        caller *outside* the critical section).
        """
        self.prefetches_issued += 1
        self._prefetched_version[thread_id] = self._version
        self._prefetch_arms[thread_id] = self._version
        return self.costs.prefetch_issue_us * max(1, n_pages)

    def is_warm(self, thread_id: int) -> bool:
        """Whether the thread's last prefetch is still coherence-valid."""
        return self._prefetched_version.get(thread_id) == self._version

    def warmup_cost(self, thread_id: int, n_pages: int) -> float:
        """Cache warm-up stall incurred inside the critical section.

        Called at lock-grant time for a commit of ``n_pages``. If the
        thread prefetched and no other thread has committed since, only
        a small residual stall remains; otherwise the full fixed +
        per-page cold cost applies.
        """
        if self.hw_prefetch_helps:
            return self.costs.warm_residual_us * n_pages
        cold = (self.costs.warmup_fixed_us
                + self.costs.warmup_per_page_us * n_pages)
        prefetched = self._prefetched_version.pop(thread_id, None)
        if prefetched is None:
            return cold
        staleness = self._version - prefetched
        # A commit re-arms at a newer version than any earlier prefetch
        # of the same thread, so a use matches its arm only if
        # prefetch() set it.
        arms = self._prefetch_arms
        if thread_id in arms and arms[thread_id] == prefetched:
            if staleness == 0:
                self.prefetches_valid_at_use += 1
            else:
                self.prefetches_invalidated += 1
        if staleness == 0:
            return self.costs.warm_residual_us * n_pages
        # Partially-invalidated prefetch: each intervening commit made a
        # fraction of the prefetched lines cold again.
        cold_fraction = min(1.0, staleness * self.invalidation_per_commit)
        warm = self.costs.warm_residual_us * n_pages
        return warm + cold_fraction * (cold - warm)

    def note_commit(self, thread_id: int) -> None:
        """A commit happened: invalidate everyone else's prefetches.

        The committing thread's own lines stay warm (it just wrote
        them), so its observed version is refreshed.
        """
        self._version += 1
        self._prefetched_version[thread_id] = self._version
