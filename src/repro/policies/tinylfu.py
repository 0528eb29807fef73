"""W-TinyLFU (Einziger, Friedman & Manes, 2017) — the descendant.

Caffeine — the JVM cache whose design explicitly credits BP-Wrapper
for its batched read buffer — pairs that buffer with this eviction
policy: a tiny admission window (LRU) in front of a segmented-LRU main
area, gated by a **TinyLFU admission filter**. The filter is a
count-min sketch of approximate access frequencies with periodic
aging; a page evicted from the window only enters the main area if its
frequency beats the main area's eviction candidate.

Including it closes the historical loop this reproduction tells: the
paper's framework decontends *any* policy, and this is the policy the
technique's most successful descendant actually runs. Its hit path
updates the sketch and relinks segments, so — like 2Q — it needs the
lock on hits, and — like 2Q — BP-Wrapper wraps it unchanged
(``pgBatPre`` + ``policy_name="tinylfu"`` just works).

Implementation: 4-row count-min sketch with 4-bit-style saturating
counters (one ``bytearray`` per row, capped at 15), halved every
``sample_period`` recorded accesses (the "reset" aging of the TinyLFU
paper); window defaults to 1 % of capacity; main area is SLRU with an
80 % protected segment.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Iterable, Optional

from repro.errors import PolicyError
from repro.policies.base import (LockDiscipline, PageKey, ReplacementPolicy)
from repro.util import stable_hash

__all__ = ["TinyLFUPolicy", "CountMinSketch"]


#: ``row.translate(HALVE)`` halves every counter of a row at once.
HALVE = bytes(value >> 1 for value in range(256))


class CountMinSketch:
    """Approximate frequency counting with saturating 4-bit counters."""

    ROWS = 4
    MAX_COUNT = 15

    def __init__(self, capacity_hint: int) -> None:
        if capacity_hint < 1:
            raise PolicyError(
                f"sketch needs capacity hint >= 1, got {capacity_hint}")
        width = 1
        while width < capacity_hint * 8:
            width *= 2
        self.width = width
        self._rows = [bytearray(width) for _ in range(self.ROWS)]
        self._mask = width - 1
        #: Halve all counters after this many increments (aging).
        self.sample_period = max(64, capacity_hint * 10)
        self._since_reset = 0

    def _cells(self, key: PageKey):
        """``(row, column)`` of ``key``'s counter in every row."""
        mask = self._mask
        return [(row, stable_hash(key, salt=salt) & mask)
                for salt, row in enumerate(self._rows, start=1)]

    def increment(self, key: PageKey) -> None:
        for row, column in self._cells(key):
            if row[column] < self.MAX_COUNT:
                row[column] += 1
        self._since_reset += 1
        if self._since_reset >= self.sample_period:
            # Aging: halve everything so stale popularity decays.
            self._rows = [row.translate(HALVE) for row in self._rows]
            self._since_reset = 0

    def estimate(self, key: PageKey) -> int:
        return min(row[column] for row, column in self._cells(key))


class TinyLFUPolicy(ReplacementPolicy):
    """W-TinyLFU: admission window + sketch-gated SLRU main area."""

    name = "tinylfu"
    lock_discipline = LockDiscipline.LOCKED_HIT

    def __init__(self, capacity: int, window_fraction: float = 0.01,
                 protected_fraction: float = 0.8, **kwargs) -> None:
        super().__init__(capacity, **kwargs)
        if not 0.0 < window_fraction <= 1.0:
            raise PolicyError(
                f"tinylfu: bad window_fraction {window_fraction}")
        self.window_capacity = max(1, round(capacity * window_fraction))
        main = max(0, capacity - self.window_capacity)
        self.protected_capacity = int(main * protected_fraction)
        self.sketch = CountMinSketch(capacity)
        # All three segments keep LRU order: least recent first.
        self._window: "OrderedDict[PageKey, None]" = OrderedDict()
        self._probation: "OrderedDict[PageKey, None]" = OrderedDict()
        self._protected: "OrderedDict[PageKey, None]" = OrderedDict()
        #: Window candidates denied admission by the filter.
        self.rejected_admissions = 0

    # -- notifications -----------------------------------------------------

    def on_hit(self, key: PageKey) -> None:
        self.sketch.increment(key)
        if key in self._window:
            self._window.move_to_end(key)
        elif key in self._protected:
            self._protected.move_to_end(key)
        elif key in self._probation:
            # Proven reuse: promote into the protected segment.
            del self._probation[key]
            self._protected[key] = None
            while len(self._protected) > self.protected_capacity:
                demoted, _ = self._protected.popitem(last=False)
                self._probation[demoted] = None
        else:
            self._check_hit_key(key, False)

    def on_miss(self, key: PageKey) -> Optional[PageKey]:
        self._check_miss_key(key, key in self)
        if (self.resident_count >= self.capacity
                and self._first_evictable(chain(
                    self._window, self._probation, self._protected)) is None):
            # Pinned solid: fail before the page touches the sketch.
            raise self._no_victim()
        self.sketch.increment(key)
        self._window[key] = None
        if self.resident_count <= self.capacity:
            self._rebalance_window_no_eviction()
            return None
        return self._evict_one(key)

    def on_remove(self, key: PageKey) -> None:
        for segment in (self._window, self._probation, self._protected):
            if key in segment:
                del segment[key]
                return
        self._check_hit_key(key, False)

    # -- eviction ------------------------------------------------------------

    def _rebalance_window_no_eviction(self) -> None:
        """Pool not full: overflowing window pages just join probation."""
        while len(self._window) > self.window_capacity:
            candidate = self._first_evictable(self._window)
            if candidate is None:
                return
            del self._window[candidate]
            self._probation[candidate] = None

    def _evict_one(self, incoming: PageKey) -> PageKey:
        """Pool over capacity: apply the TinyLFU admission duel. The
        incoming page is never the candidate: it has no frame to lose."""
        candidate = self._first_evictable(self._window)
        if (candidate is not None and candidate != incoming
                and len(self._window) > self.window_capacity):
            del self._window[candidate]
            victim = (self._first_evictable(self._probation)
                      or self._first_evictable(self._protected))
            if victim is None:
                # Main area empty (tiny caches): the candidate loses.
                return candidate
            if (self.sketch.estimate(candidate)
                    > self.sketch.estimate(victim)):
                self._remove_from_main(victim)
                self._probation[candidate] = None
                return victim
            self.rejected_admissions += 1
            return candidate
        # Window within budget (or pinned solid but for the incoming
        # page): evict from the main area, falling back to the window.
        victim = (self._first_evictable(self._probation)
                  or self._first_evictable(self._protected)
                  or self._first_evictable(self._window))
        if victim is None:
            raise self._no_victim()
        self.on_remove(victim)
        return victim

    def _remove_from_main(self, key: PageKey) -> None:
        if key in self._probation:
            del self._probation[key]
        else:
            del self._protected[key]

    def _first_evictable(self, segment: Iterable[PageKey]
                         ) -> Optional[PageKey]:
        for key in segment:
            if self._evictable(key):
                return key
        return None

    # -- structural invariants ----------------------------------------------

    def check_invariants(self) -> None:
        """W-TinyLFU structure: disjoint segments, protected bound."""
        super().check_invariants()
        window = set(self._window)
        probation = set(self._probation)
        protected = set(self._protected)
        overlap = ((window & probation) | (window & protected)
                   | (probation & protected))
        if overlap:
            raise PolicyError(
                f"tinylfu: pages in more than one segment: "
                f"{list(overlap)!r}")
        if len(self._protected) > self.protected_capacity:
            raise PolicyError(
                f"tinylfu: protected segment holds "
                f"{len(self._protected)} pages, bound is "
                f"{self.protected_capacity}")
        # The window may exceed its nominal share when pinned pages
        # block demotion, but never the whole pool (base bound); the
        # sketch's aging counter must stay inside its period.
        if not 0 <= self.sketch._since_reset < self.sketch.sample_period:
            raise PolicyError(
                f"tinylfu: sketch aging counter "
                f"{self.sketch._since_reset} outside "
                f"[0, {self.sketch.sample_period})")

    # -- introspection -------------------------------------------------------

    def __contains__(self, key: PageKey) -> bool:
        return (key in self._window or key in self._probation
                or key in self._protected)

    def resident_keys(self) -> Iterable[PageKey]:
        return (list(self._window) + list(self._probation)
                + list(self._protected))

    @property
    def resident_count(self) -> int:
        return (len(self._window) + len(self._probation)
                + len(self._protected))

    def segment_of(self, key: PageKey) -> Optional[str]:
        """"window", "probation", "protected", or None (for tests)."""
        if key in self._window:
            return "window"
        if key in self._probation:
            return "probation"
        if key in self._protected:
            return "protected"
        return None
