"""Replacement-policy base contract.

A policy manages the *metadata* of a fixed-capacity page pool. The
buffer manager (or the fast hit-ratio simulator) drives it through
three notifications:

* :meth:`~ReplacementPolicy.on_hit` — a resident page was accessed
  (:meth:`~ReplacementPolicy.on_hits` replays a batch of them);
* :meth:`~ReplacementPolicy.on_miss` — a non-resident page must be
  admitted; the policy returns the victim it chose to evict, or ``None``
  while the pool still has free frames;
* :meth:`~ReplacementPolicy.on_remove` — a resident page was dropped by
  external action (table truncated, page invalidated).

Eviction must honour an ``evictable`` predicate (pinned buffers cannot
be victims, as in PostgreSQL): policies skip unevictable candidates
with at most a bounded scan and raise :class:`~repro.errors.PolicyError`
if every resident page is unevictable.

The **lock discipline** is the property the whole paper revolves
around: list-based algorithms mutate shared structures on every hit and
therefore require the exclusive lock
(:attr:`LockDiscipline.LOCKED_HIT`), while clock-family algorithms only
set a reference bit/counter on hits
(:attr:`LockDiscipline.LOCK_FREE_HIT`). Misses always need the lock.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Hashable, Iterable, Optional

from repro.errors import PolicyError

__all__ = [
    "PageKey",
    "LockDiscipline",
    "AccessResult",
    "PolicyStats",
    "ReplacementPolicy",
]

PageKey = Hashable


class LockDiscipline(enum.Enum):
    """Whether page hits require the replacement lock."""

    #: Hits mutate shared lists/stacks: the lock is required per hit.
    LOCKED_HIT = "locked-hit"
    #: Hits only set a reference bit/counter: no lock on the hit path.
    LOCK_FREE_HIT = "lock-free-hit"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one :meth:`ReplacementPolicy.access` convenience call."""

    hit: bool
    evicted: Optional[PageKey] = None


@dataclass
class PolicyStats:
    """Hit/miss/eviction accounting for stand-alone policy runs."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def _always_evictable(_key: PageKey) -> bool:
    return True


class ReplacementPolicy(ABC):
    """Abstract base class for all replacement algorithms."""

    #: Short machine-usable name ("lru", "2q", ...), set by subclasses.
    name: ClassVar[str] = "abstract"
    #: Lock requirement on the hit path.
    lock_discipline: ClassVar[LockDiscipline] = LockDiscipline.LOCKED_HIT

    def __init__(self, capacity: int,
                 evictable: Optional[Callable[[PageKey], bool]] = None
                 ) -> None:
        if capacity < 1:
            raise PolicyError(
                f"{type(self).__name__} needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self._evictable = evictable or _always_evictable
        self.stats = PolicyStats()

    # -- wiring ------------------------------------------------------------

    def set_evictable_predicate(self,
                                predicate: Callable[[PageKey], bool]) -> None:
        """Install the pin check used to veto victims."""
        self._evictable = predicate

    # -- core notifications (implemented by subclasses) ---------------------

    @abstractmethod
    def on_hit(self, key: PageKey) -> None:
        """A resident page was accessed; update metadata.

        Raises :class:`PolicyError` if ``key`` is not resident.
        """

    def on_hits(self, keys: Iterable[PageKey]) -> None:
        """:meth:`on_hit` for each of ``keys`` in order: one committed
        BP-Wrapper batch. Overrides must leave exactly the state (and
        raise exactly the error) the loop does."""
        on_hit = self.on_hit
        for key in keys:
            on_hit(key)

    @abstractmethod
    def on_miss(self, key: PageKey) -> Optional[PageKey]:
        """Admit a non-resident page; return the evicted victim or None.

        Raises :class:`PolicyError` if ``key`` is already resident, or
        if the pool is full and every resident page is unevictable.
        """

    @abstractmethod
    def on_remove(self, key: PageKey) -> None:
        """Drop a resident page without replacement (invalidation)."""

    # -- introspection -------------------------------------------------------

    @abstractmethod
    def __contains__(self, key: PageKey) -> bool:
        """Whether ``key`` is currently resident."""

    @abstractmethod
    def resident_keys(self) -> Iterable[PageKey]:
        """Snapshot of resident keys (order unspecified; for tests)."""

    @property
    @abstractmethod
    def resident_count(self) -> int:
        """Number of resident pages."""

    # -- structural invariants ----------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`PolicyError` if internal bookkeeping drifted.

        The base check covers the contract every policy shares:
        ``resident_keys()`` has no duplicates, agrees with
        ``__contains__`` and ``resident_count``, and never exceeds
        ``capacity``. Subclasses with richer structure (2Q, LIRS, ARC
        ghost lists and stacks) extend it with their own bounds — the
        correctness subsystem (:mod:`repro.check`) calls this hook
        after every batch commit when checking is enabled, and never
        otherwise (zero cost when disabled).
        """
        keys = list(self.resident_keys())
        if len(set(keys)) != len(keys):
            raise PolicyError(
                f"{self.name}: resident_keys() contains duplicates")
        if len(keys) != self.resident_count:
            raise PolicyError(
                f"{self.name}: resident_keys() has {len(keys)} entries "
                f"but resident_count is {self.resident_count}")
        if self.resident_count > self.capacity:
            raise PolicyError(
                f"{self.name}: {self.resident_count} resident pages "
                f"exceed capacity {self.capacity}")
        for key in keys:
            if key not in self:
                raise PolicyError(
                    f"{self.name}: resident key {key!r} fails "
                    f"__contains__")

    # -- convenience ------------------------------------------------------------

    def access(self, key: PageKey) -> AccessResult:
        """Drive one access end-to-end (used by the hit-ratio simulator)."""
        if key in self:
            self.stats.hits += 1
            self.on_hit(key)
            return AccessResult(hit=True)
        self.stats.misses += 1
        evicted = self.on_miss(key)
        if evicted is not None:
            self.stats.evictions += 1
        return AccessResult(hit=False, evicted=evicted)

    def warm_with(self, keys: Iterable[PageKey]) -> None:
        """Pre-populate the pool (the paper pre-warms buffers, §IV)."""
        for key in keys:
            if key not in self:
                self.on_miss(key)

    # -- shared helpers ------------------------------------------------------------

    def _check_hit_key(self, key: PageKey, resident: bool) -> None:
        if not resident:
            raise PolicyError(
                f"{self.name}: on_hit for non-resident page {key!r}")

    def _check_miss_key(self, key: PageKey, resident: bool) -> None:
        if resident:
            raise PolicyError(
                f"{self.name}: on_miss for already-resident page {key!r}")

    def _no_victim(self) -> PolicyError:
        return PolicyError(
            f"{self.name}: no evictable page among "
            f"{self.resident_count} resident pages")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} capacity={self.capacity} "
                f"resident={self.resident_count}>")
