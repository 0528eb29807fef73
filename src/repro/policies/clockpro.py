"""CLOCK-PRO replacement (Jiang, Chen & Zhang, USENIX 2005).

CLOCK-PRO approximates LIRS with clock mechanics: pages are *hot* or
*cold*; cold pages get a *test period* in which a re-reference proves a
small reuse distance and promotes them; recently-evicted cold pages stay
in the ring as non-resident *ghosts* while their test period lasts.
Three hands sweep one shared ring:

* ``HAND_cold`` — finds victims among resident cold pages;
* ``HAND_hot`` — demotes unreferenced hot pages when the hot set is
  over target;
* ``HAND_test`` — expires test periods / ghosts, bounding history.

The cold-set target ``mc`` adapts: a ghost hit (re-access during test)
grows it, an expired test shrinks it.

The paper lists CLOCK-PRO among the lock-free-hit approximations whose
hit ratio trails the original (LIRS); here hits only set a reference
bit, so :attr:`lock_discipline` is ``LOCK_FREE_HIT``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import PolicyError
from repro.policies.base import (LockDiscipline, PageKey, ReplacementPolicy)

__all__ = ["ClockProPolicy"]

_HOT = "hot"
_COLD = "cold"
_GHOST = "ghost"


class _Node:
    __slots__ = ("key", "status", "ref", "in_test", "prev", "next")

    def __init__(self, key: PageKey, status: str) -> None:
        self.key = key
        self.status = status
        self.ref = False
        self.in_test = status == _COLD
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class ClockProPolicy(ReplacementPolicy):
    """CLOCK-PRO over a single circular ring with three hands."""

    name = "clockpro"
    lock_discipline = LockDiscipline.LOCK_FREE_HIT

    def __init__(self, capacity: int, min_cold: int = 1, **kwargs) -> None:
        super().__init__(capacity, **kwargs)
        self._nodes: Dict[PageKey, _Node] = {}
        self._hand_cold: Optional[_Node] = None
        self._hand_hot: Optional[_Node] = None
        self._hand_test: Optional[_Node] = None
        #: Adaptive number of frames allotted to resident cold pages.
        self._min_cold = max(1, min(min_cold, capacity))
        self._cold_target = self._min_cold
        self._hot_count = 0
        self._cold_count = 0
        self._ghost_count = 0

    # -- ring plumbing ------------------------------------------------------

    def _insert_before(self, node: _Node, anchor: Optional[_Node]) -> None:
        """Link ``node`` just before ``anchor`` (or form a new ring)."""
        if anchor is None:
            node.prev = node.next = node
            return
        node.prev = anchor.prev
        node.next = anchor
        anchor.prev.next = node
        anchor.prev = node

    def _unlink(self, node: _Node) -> None:
        for hand_name in ("_hand_cold", "_hand_hot", "_hand_test"):
            if getattr(self, hand_name) is node:
                replacement = node.next if node.next is not node else None
                setattr(self, hand_name, replacement)
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = None

    def _list_head_anchor(self) -> Optional[_Node]:
        """Insertion point for new pages: just behind HAND_hot."""
        return self._hand_hot or self._hand_cold or self._hand_test

    def _insert_new(self, node: _Node) -> None:
        anchor = self._list_head_anchor()
        self._insert_before(node, anchor)
        if self._hand_cold is None:
            self._hand_cold = node
        if self._hand_hot is None:
            self._hand_hot = node
        if self._hand_test is None:
            self._hand_test = node

    # -- notifications -------------------------------------------------------

    def on_hit(self, key: PageKey) -> None:
        node = self._nodes.get(key)
        self._check_hit_key(key, node is not None and node.status != _GHOST)
        node.ref = True

    def on_miss(self, key: PageKey) -> Optional[PageKey]:
        node = self._nodes.get(key)
        self._check_miss_key(key, node is not None and node.status != _GHOST)
        victim = None
        if self.resident_count >= self.capacity:
            victim = self._run_hand_cold()
            # The sweep may have promoted cold pages and run HAND_hot,
            # which can expire the very ghost this miss matched — the
            # node must be re-fetched, not trusted.
            node = self._nodes.get(key)
        if node is not None:
            # Ghost hit: re-accessed inside its test period -> hot, and
            # cold pages deserve more room.
            self._cold_target = min(self.capacity, self._cold_target + 1)
            self._unlink(node)
            self._ghost_count -= 1
            node.status = _HOT
            node.ref = False
            node.in_test = False
            self._insert_new(node)
            self._hot_count += 1
            self._run_hand_hot()
        else:
            node = _Node(key, _COLD)
            self._nodes[key] = node
            self._insert_new(node)
            self._cold_count += 1
        self._bound_ghosts()
        return victim

    def on_remove(self, key: PageKey) -> None:
        node = self._nodes.get(key)
        self._check_hit_key(key, node is not None and node.status != _GHOST)
        if node.status == _HOT:
            self._hot_count -= 1
        else:
            self._cold_count -= 1
        self._unlink(node)
        del self._nodes[key]

    # -- hands -----------------------------------------------------------------

    def _run_hand_cold(self) -> PageKey:
        """Sweep HAND_cold until a resident cold victim is evicted.

        A lap of the ring that finds no unpinned cold page demotes an
        unpinned hot page for the hand to take. With none, the miss
        fails with the hand where it was: it leaves the policy as it
        was.
        """
        start = self._hand_cold
        passed = 0   # nodes passed in a row with nothing to evict or age
        budget = 8 * max(1, len(self._nodes)) + 8
        while budget > 0 and self._hand_cold is not None:
            budget -= 1
            node = self._hand_cold
            self._hand_cold = node.next
            if node.status != _COLD or not self._evictable(node.key):
                passed += 1
                if passed > len(self._nodes):
                    if not self._demote_unpinned_hot():
                        break
                    passed = 0
                continue
            passed = 0
            if node.ref:
                node.ref = False
                if node.in_test:
                    # Re-accessed during test: promote to hot.
                    self._unlink(node)
                    node.status = _HOT
                    node.in_test = False
                    self._insert_new(node)
                    self._cold_count -= 1
                    self._hot_count += 1
                    self._run_hand_hot()
                else:
                    # Give it a fresh test period at the list head.
                    self._unlink(node)
                    node.in_test = True
                    self._insert_new(node)
                continue
            # Unreferenced cold page: the victim.
            self._cold_count -= 1
            if node.in_test:
                node.status = _GHOST
                self._ghost_count += 1
            else:
                self._unlink(node)
                del self._nodes[node.key]
            return node.key
        self._hand_cold = start
        raise self._no_victim()

    def _demote_unpinned_hot(self) -> bool:
        """Demote the first unpinned hot page from HAND_hot on, as
        HAND_hot does an unreferenced one; False if there is none."""
        node = self._hand_hot
        for _ in range(len(self._nodes)):
            if node.status == _HOT and self._evictable(node.key):
                node.status = _COLD
                node.ref = False
                self._hot_count -= 1
                self._cold_count += 1
                self._hand_hot = node.next
                return True
            node = node.next
        return False

    def _run_hand_hot(self) -> None:
        """Demote hot pages while the hot set exceeds its target."""
        hot_target = max(0, self.capacity - self._cold_target)
        budget = 8 * max(1, len(self._nodes)) + 8
        while self._hot_count > hot_target and budget > 0:
            budget -= 1
            node = self._hand_hot
            if node is None:
                return
            self._hand_hot = node.next
            if node.status == _GHOST:
                # HAND_hot passing a ghost ends its test period.
                self._unlink(node)
                del self._nodes[node.key]
                self._ghost_count -= 1
                self._shrink_cold_target()
                continue
            if node.status == _COLD:
                # Passing HAND_hot terminates a cold page's test period.
                node.in_test = False
                continue
            if node.ref:
                node.ref = False
                continue
            node.status = _COLD
            node.in_test = False
            self._hot_count -= 1
            self._cold_count += 1

    def _bound_ghosts(self) -> None:
        """Run HAND_test so non-resident history stays <= capacity."""
        budget = 8 * max(1, len(self._nodes)) + 8
        while self._ghost_count > self.capacity and budget > 0:
            budget -= 1
            node = self._hand_test
            if node is None:
                return
            self._hand_test = node.next
            if node.status == _GHOST:
                self._unlink(node)
                del self._nodes[node.key]
                self._ghost_count -= 1
                self._shrink_cold_target()
            elif node.status == _COLD:
                node.in_test = False

    def _shrink_cold_target(self) -> None:
        self._cold_target = max(self._min_cold, self._cold_target - 1)

    # -- structural invariants ----------------------------------------------

    def check_invariants(self) -> None:
        """CLOCK-PRO structure: ring census vs counters, hand anchoring."""
        super().check_invariants()
        start = self._list_head_anchor()
        census = {_HOT: 0, _COLD: 0, _GHOST: 0}
        on_ring = set()
        if start is not None:
            node = start
            while True:
                if node.next.prev is not node or node.prev.next is not node:
                    raise PolicyError(
                        f"clockpro: broken ring links at {node.key!r}")
                if node.key in on_ring:
                    raise PolicyError(
                        f"clockpro: {node.key!r} linked twice on the ring")
                on_ring.add(node.key)
                census[node.status] += 1
                node = node.next
                if node is start:
                    break
        if on_ring != self._nodes.keys():
            ringless = self._nodes.keys() - on_ring
            unknown = on_ring - self._nodes.keys()
            raise PolicyError(
                f"clockpro: ring/directory divergence: "
                f"unlinked={list(ringless)!r} unknown={list(unknown)!r}")
        counters = {_HOT: self._hot_count, _COLD: self._cold_count,
                    _GHOST: self._ghost_count}
        if census != counters:
            raise PolicyError(
                f"clockpro: ring census {census!r} disagrees with "
                f"counters {counters!r}")
        if self._ghost_count > self.capacity:
            raise PolicyError(
                f"clockpro: {self._ghost_count} ghosts exceed the "
                f"capacity bound {self.capacity}")
        if not self._min_cold <= self._cold_target <= self.capacity:
            raise PolicyError(
                f"clockpro: cold target {self._cold_target} outside "
                f"[{self._min_cold}, {self.capacity}]")
        for hand_name in ("_hand_cold", "_hand_hot", "_hand_test"):
            hand = getattr(self, hand_name)
            if hand is not None and hand.key not in on_ring:
                raise PolicyError(
                    f"clockpro: {hand_name[1:]} points off the ring "
                    f"at {hand.key!r}")

    # -- introspection ----------------------------------------------------------

    def __contains__(self, key: PageKey) -> bool:
        node = self._nodes.get(key)
        return node is not None and node.status != _GHOST

    def resident_keys(self) -> Iterable[PageKey]:
        return [key for key, node in self._nodes.items()
                if node.status != _GHOST]

    @property
    def resident_count(self) -> int:
        return self._hot_count + self._cold_count

    @property
    def hot_count(self) -> int:
        return self._hot_count

    @property
    def cold_count(self) -> int:
        return self._cold_count

    @property
    def ghost_count(self) -> int:
        return self._ghost_count

    @property
    def cold_target(self) -> int:
        return self._cold_target

    def status_of(self, key: PageKey) -> Optional[str]:
        node = self._nodes.get(key)
        return node.status if node is not None else None
