"""2Q replacement (Johnson & Shasha, VLDB 1994) — the paper's headline.

The evaluation replaces PostgreSQL's clock with 2Q ("as a representative
of the advanced replacement algorithms of high hit ratios", §IV-A), so
this is the algorithm wrapped by BP-Wrapper in most experiments.

Full (two-parameter) 2Q:

* ``A1in`` — a FIFO of freshly-admitted resident pages (correlated
  references inside it are ignored);
* ``A1out`` — a ghost FIFO remembering identifiers of pages evicted
  from ``A1in``;
* ``Am`` — an LRU of proven-hot resident pages; a miss whose key is in
  the ghost list is promoted straight into ``Am``.

Hits in ``Am`` relink the LRU list — the operation the paper names for
the pg2Q hit path ("if the page is in Am list, it is moved to the MRU
end of the list", §IV-B) — so hits need the lock.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from repro.errors import PolicyError
from repro.policies.base import (LockDiscipline, PageKey, ReplacementPolicy)

__all__ = ["TwoQPolicy"]


class TwoQPolicy(ReplacementPolicy):
    """Full 2Q with tunable ``Kin``/``Kout`` fractions."""

    name = "2q"
    lock_discipline = LockDiscipline.LOCKED_HIT

    def __init__(self, capacity: int, kin_fraction: float = 0.25,
                 kout_fraction: float = 0.50, **kwargs) -> None:
        super().__init__(capacity, **kwargs)
        if not 0.0 < kin_fraction <= 1.0:
            raise PolicyError(f"2q: bad kin_fraction {kin_fraction}")
        if kout_fraction < 0.0:
            raise PolicyError(f"2q: bad kout_fraction {kout_fraction}")
        #: Target length of the A1in FIFO (at least one frame).
        self.kin = max(1, int(capacity * kin_fraction))
        #: Capacity of the A1out ghost list.
        self.kout = max(1, int(capacity * kout_fraction))
        self._a1in: "OrderedDict[PageKey, None]" = OrderedDict()
        self._a1out: "OrderedDict[PageKey, None]" = OrderedDict()
        self._am: "OrderedDict[PageKey, None]" = OrderedDict()

    # -- notifications -----------------------------------------------------

    def on_hit(self, key: PageKey) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        elif key in self._a1in:
            # 2Q ignores correlated re-references while in A1in.
            pass
        else:
            self._check_hit_key(key, False)

    def on_hits(self, keys: Iterable[PageKey]) -> None:
        # on_hit's branches, one lookup fewer: A1in and Am are disjoint,
        # and move_to_end's KeyError is Am's membership test.
        a1in, am = self._a1in, self._am
        for key in keys:
            if key not in a1in:
                try:
                    am.move_to_end(key)
                except KeyError:
                    break
        else:
            return
        self._check_hit_key(key, False)

    def on_miss(self, key: PageKey) -> Optional[PageKey]:
        self._check_miss_key(key, key in self)
        # Pop the ghost entry first: reclaiming below may trim A1out.
        ghost_hit = key in self._a1out
        if ghost_hit:
            del self._a1out[key]
        victim = None
        if self.resident_count >= self.capacity:
            victim = self._reclaim_frame()
        if ghost_hit:
            self._am[key] = None
        else:
            self._a1in[key] = None
        return victim

    def on_remove(self, key: PageKey) -> None:
        if key in self._a1in:
            del self._a1in[key]
        elif key in self._am:
            del self._am[key]
        else:
            self._check_hit_key(key, False)

    # -- eviction -------------------------------------------------------------

    def _reclaim_frame(self) -> PageKey:
        """Free one frame per the 2Q reclaim rule, honouring pins."""
        if len(self._a1in) > self.kin:
            victim = self._first_evictable(self._a1in)
            if victim is not None:
                del self._a1in[victim]
                self._a1out[victim] = None
                if len(self._a1out) > self.kout:
                    self._a1out.popitem(last=False)
                return victim
            # Everything in A1in pinned: fall through to Am.
        victim = self._first_evictable(self._am)
        if victim is not None:
            del self._am[victim]
            return victim
        # Am exhausted (or all pinned): try A1in even if short.
        victim = self._first_evictable(self._a1in)
        if victim is not None:
            del self._a1in[victim]
            self._a1out[victim] = None
            if len(self._a1out) > self.kout:
                self._a1out.popitem(last=False)
            return victim
        raise self._no_victim()

    def _first_evictable(self, queue: "OrderedDict[PageKey, None]"
                         ) -> Optional[PageKey]:
        for key in queue:
            if self._evictable(key):
                return key
        return None

    # -- structural invariants ----------------------------------------------

    def check_invariants(self) -> None:
        """2Q structure: disjoint lists, bounded ghost FIFO."""
        super().check_invariants()
        a1in, a1out, am = set(self._a1in), set(self._a1out), set(self._am)
        if a1in & am:
            raise PolicyError(
                f"2q: pages resident in both A1in and Am: "
                f"{list(a1in & am)!r}")
        ghosts_overlapping = a1out & (a1in | am)
        if ghosts_overlapping:
            raise PolicyError(
                f"2q: ghost entries still resident: "
                f"{list(ghosts_overlapping)!r}")
        if len(self._a1out) > self.kout:
            raise PolicyError(
                f"2q: ghost list has {len(self._a1out)} entries, "
                f"bound is kout={self.kout}")

    # -- introspection -------------------------------------------------------

    def __contains__(self, key: PageKey) -> bool:
        return key in self._a1in or key in self._am

    def resident_keys(self) -> Iterable[PageKey]:
        return list(self._a1in) + list(self._am)

    @property
    def resident_count(self) -> int:
        return len(self._a1in) + len(self._am)

    @property
    def a1in_keys(self) -> Iterable[PageKey]:
        """A1in contents oldest-first (for tests)."""
        return list(self._a1in)

    @property
    def a1out_keys(self) -> Iterable[PageKey]:
        """Ghost-list contents oldest-first (for tests)."""
        return list(self._a1out)

    @property
    def am_keys(self) -> Iterable[PageKey]:
        """Am contents LRU-first (for tests)."""
        return list(self._am)
