"""CAR — Clock with Adaptive Replacement (Bansal & Modha, FAST 2004).

CAR is ARC's clock approximation and one of the paper's examples of the
hit-ratio/scalability trade-off: "the clock-based approximations, such
as CLOCK, CLOCK-PRO, and CAR, usually cannot achieve the high hit ratio
compared to their corresponding original algorithms" (§I). Its hit path
only sets a reference bit, so hits are lock-free; its miss path runs
the ARC-style adaptation over two clocks ``T1``/``T2`` with ghost lists
``B1``/``B2``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Optional

from repro.errors import PolicyError
from repro.policies.base import (LockDiscipline, PageKey, ReplacementPolicy)

__all__ = ["CARPolicy"]


class CARPolicy(ReplacementPolicy):
    """CAR with pin-aware clock sweeps."""

    name = "car"
    lock_discipline = LockDiscipline.LOCK_FREE_HIT

    def __init__(self, capacity: int, **kwargs) -> None:
        super().__init__(capacity, **kwargs)
        # The clocks are FIFO rings: head = hand position, tail = most
        # recently inserted. OrderedDict gives O(1) head pop / tail push.
        self._t1: "OrderedDict[PageKey, None]" = OrderedDict()
        self._t2: "OrderedDict[PageKey, None]" = OrderedDict()
        self._ref: Dict[PageKey, bool] = {}
        self._b1: "OrderedDict[PageKey, None]" = OrderedDict()
        self._b2: "OrderedDict[PageKey, None]" = OrderedDict()
        self._p = 0.0

    @property
    def p(self) -> float:
        """Adaptation target for ``len(T1)``."""
        return self._p

    # -- notifications -----------------------------------------------------

    def on_hit(self, key: PageKey) -> None:
        self._check_hit_key(key, key in self._ref)
        self._ref[key] = True

    def on_miss(self, key: PageKey) -> Optional[PageKey]:
        self._check_miss_key(key, key in self._ref)
        c = self.capacity
        victim = None
        if self.resident_count >= c:
            victim = self._replace()
            # History replacement (only for brand-new pages).
            if key not in self._b1 and key not in self._b2:
                if len(self._t1) + len(self._b1) >= c and self._b1:
                    self._b1.popitem(last=False)
                elif (len(self._t1) + len(self._t2) + len(self._b1)
                        + len(self._b2)) >= 2 * c and self._b2:
                    self._b2.popitem(last=False)
        if key in self._b1:
            delta = max(1.0, len(self._b2) / max(1, len(self._b1)))
            self._p = min(float(c), self._p + delta)
            del self._b1[key]
            self._t2[key] = None
        elif key in self._b2:
            delta = max(1.0, len(self._b1) / max(1, len(self._b2)))
            self._p = max(0.0, self._p - delta)
            del self._b2[key]
            self._t2[key] = None
        else:
            self._t1[key] = None
        self._ref[key] = False
        return victim

    def on_remove(self, key: PageKey) -> None:
        self._check_hit_key(key, key in self._ref)
        del self._ref[key]
        if key in self._t1:
            del self._t1[key]
        else:
            del self._t2[key]

    # -- eviction ----------------------------------------------------------------

    def _replace(self) -> PageKey:
        """CAR's replace(): sweep the clocks until a victim is found.

        A pinned head is rotated past. A clock whose every page is
        pinned (a full turn of pinned heads in a row) is left to the
        other, so a miss fails only when no page is evictable, and then
        with the clocks turned back: it leaves the policy as it was.
        """
        heads = (next(iter(self._t1), None), next(iter(self._t2), None))
        pinned = [0, 0]   # pinned heads rotated past in a row, per clock
        budget = 4 * (len(self._t1) + len(self._t2)) + 4
        while budget > 0:
            budget -= 1
            t1 = self._t1 and pinned[0] < len(self._t1)
            t2 = self._t2 and pinned[1] < len(self._t2)
            if t1 and (len(self._t1) >= max(1.0, self._p) or not t2):
                index, clock = 0, self._t1
            elif t2:
                index, clock = 1, self._t2
            else:
                break
            head = next(iter(clock))
            if not self._evictable(head):
                clock.move_to_end(head)
                pinned[index] += 1
                continue
            pinned[index] = 0
            if self._ref[head]:
                self._ref[head] = False
                if index:
                    clock.move_to_end(head)
                else:
                    # Referenced in T1: proven reuse, promote to T2.
                    del clock[head]
                    self._t2[head] = None
                    pinned[1] = 0
                continue
            del clock[head]
            del self._ref[head]
            (self._b2 if index else self._b1)[head] = None
            return head
        for clock, head in zip((self._t1, self._t2), heads):
            while head in clock and next(iter(clock)) != head:
                clock.move_to_end(next(iter(clock)))
        raise self._no_victim()

    # -- structural invariants ----------------------------------------------

    def check_invariants(self) -> None:
        """CAR structure: disjoint clocks/ghosts, ARC's list bounds."""
        super().check_invariants()
        t1, t2 = set(self._t1), set(self._t2)
        b1, b2 = set(self._b1), set(self._b2)
        if t1 & t2:
            raise PolicyError(
                f"car: pages on both clocks: {list(t1 & t2)!r}")
        if (t1 | t2) != self._ref.keys():
            clockless = self._ref.keys() - (t1 | t2)
            refless = (t1 | t2) - self._ref.keys()
            raise PolicyError(
                f"car: clock/ref divergence: ref-only={list(clockless)!r} "
                f"clock-only={list(refless)!r}")
        ghost_overlap = (b1 & b2) | ((b1 | b2) & (t1 | t2))
        if ghost_overlap:
            raise PolicyError(
                f"car: ghost lists overlap each other or the clocks: "
                f"{list(ghost_overlap)!r}")
        c = self.capacity
        if not 0.0 <= self._p <= c:
            raise PolicyError(
                f"car: adaptation target p={self._p} outside [0, {c}]")
        # ARC's I1 (|T1|+|B1| <= c) holds under pure replacement but is
        # legitimately perturbed by on_remove invalidations (T1 refills
        # while B1 keeps its ghosts), so the checked bounds are the
        # per-list ones the miss path enforces unconditionally.
        if len(b1) > c or len(b2) > c:
            raise PolicyError(
                f"car: ghost list over capacity: |B1|={len(b1)} "
                f"|B2|={len(b2)} c={c}")
        total = len(t1) + len(t2) + len(b1) + len(b2)
        if total > 2 * c:
            raise PolicyError(
                f"car: directory holds {total} pages, bound is 2c={2 * c}")

    # -- introspection -------------------------------------------------------------

    def __contains__(self, key: PageKey) -> bool:
        return key in self._ref

    def resident_keys(self) -> Iterable[PageKey]:
        return list(self._ref)

    @property
    def resident_count(self) -> int:
        return len(self._ref)

    def reference_bit(self, key: PageKey) -> bool:
        self._check_hit_key(key, key in self._ref)
        return self._ref[key]
