"""Tenant model: identity, skewed page selection, admission state.

Each tenant owns a private page space (``tenantNN``) sampled with its
own Zipf permutation — tenants disagree about which of their pages are
hot — plus a share of the global hot set (``hot``), the index-root-like
pages every tenant touches. Admission is a per-tenant token bucket over
*simulated* (or wall, under the native runtime) time: deterministic,
allocation-free, and exact — the classic GCRA formulation, not a
timer-driven refill loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bufmgr.tags import PageId
from repro.util import nearest_rank
from repro.workloads.zipf import ZipfGenerator

__all__ = ["TenantSpec", "TenantState", "TokenBucket", "tenant_space"]


def tenant_space(tenant_index: int) -> str:
    """The page-space name of one tenant's private pages."""
    return f"tenant{tenant_index:02d}"


#: The shared hot set's page-space name.
HOT_SPACE = "hot"


@dataclass(frozen=True)
class TenantSpec:
    """Static identity and quota of one tenant."""

    index: int
    name: str
    pages: int
    #: Zipf theta over the tenant's private pages.
    skew: float
    #: Requests per second admitted (None = unlimited).
    quota_per_sec: Optional[float]
    quota_burst: int


class TokenBucket:
    """Deterministic token bucket: ``reserve(now)`` -> wait time.

    Tokens accrue continuously at ``rate_per_us``; a reservation either
    takes a whole token immediately (returns ``0.0``) or books the
    earliest instant one will exist and returns how long the caller
    must sleep until then. Booking (rather than polling) keeps the sim
    deterministic and starvation-free: grants are handed out in call
    order. ``mutex`` (native runtime only) serializes reservations from
    one tenant's concurrent sessions.
    """

    __slots__ = ("rate_per_us", "burst", "_tokens", "_last_us", "mutex")

    def __init__(self, rate_per_sec: Optional[float], burst: int,
                 mutex=None) -> None:
        self.rate_per_us = (None if not rate_per_sec
                            else rate_per_sec / 1_000_000.0)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_us = 0.0
        self.mutex = mutex

    def reserve(self, now_us: float) -> float:
        """Take one token; return the wait (µs) until it is granted."""
        if self.rate_per_us is None:
            return 0.0
        if self.mutex is not None:
            with self.mutex:
                return self._reserve_locked(now_us)
        return self._reserve_locked(now_us)

    def _reserve_locked(self, now_us: float) -> float:
        if now_us > self._last_us:
            earned = (now_us - self._last_us) * self.rate_per_us
            self._tokens = min(self.burst, self._tokens + earned)
            self._last_us = now_us
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        # The token materializes (and is immediately spent) at the
        # *booked* virtual time, which may already be ahead of ``now``
        # from earlier reservations; extending from ``_last_us`` (not
        # ``now``) is what makes back-to-back reservations queue
        # behind each other instead of all waiting one token period.
        grant_us = self._last_us + (1.0 - self._tokens) / self.rate_per_us
        self._tokens = 0.0
        self._last_us = grant_us
        return grant_us - now_us


class TenantState:
    """Per-tenant runtime state: sampler, bucket, counters."""

    def __init__(self, spec: TenantSpec, hot_pages: int,
                 hot_fraction: float, hot_skew: float,
                 mutex=None) -> None:
        self.spec = spec
        self.bucket = TokenBucket(spec.quota_per_sec, spec.quota_burst,
                                  mutex=mutex)
        self._space = tenant_space(spec.index)
        # permute_seed = tenant index: every tenant concentrates its
        # traffic on a *different* subset of its private pages.
        self._zipf = ZipfGenerator(spec.pages, spec.skew, permute=True,
                                   permute_seed=spec.index + 1)
        self._hot_zipf = (ZipfGenerator(hot_pages, hot_skew)
                          if hot_pages > 0 else None)
        self._hot_fraction = hot_fraction
        # -- counters (written by this tenant's sessions) ------------------
        self.admitted = 0
        self.throttled = 0
        self.throttle_wait_us = 0.0
        self.backpressured = 0
        self.completed = 0
        self.accesses = 0
        self.hits = 0
        self.latencies_us: List[float] = []
        #: Requests pinned to each home shard (shard id -> count) —
        #: the tenant x shard routing matrix the telemetry dashboard's
        #: heatmap reads.
        self.shard_requests: Dict[int, int] = {}

    def next_pages(self, rng: random.Random, count: int) -> List[PageId]:
        """The ordered page accesses of one client request."""
        pages: List[PageId] = []
        for _ in range(count):
            if (self._hot_zipf is not None
                    and rng.random() < self._hot_fraction):
                pages.append(PageId(HOT_SPACE, self._hot_zipf.sample(rng)))
            else:
                pages.append(PageId(self._space, self._zipf.sample(rng)))
        return pages

    def private_pages(self) -> List[PageId]:
        return [PageId(self._space, block)
                for block in range(self.spec.pages)]

    # -- reporting ---------------------------------------------------------

    def latency_summary(self) -> dict:
        """Mean/p95/max of completed-request latencies, milliseconds."""
        if not self.latencies_us:
            return {"mean_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
        ordered = sorted(self.latencies_us)
        return {
            "mean_ms": sum(ordered) / len(ordered) / 1000.0,
            "p95_ms": nearest_rank(ordered, 95.0) / 1000.0,
            "max_ms": ordered[-1] / 1000.0,
        }

    def to_record(self) -> dict:
        """JSON-able per-tenant record (deterministic under the sim)."""
        summary = self.latency_summary()
        return {
            "tenant": self.spec.name,
            "skew": self.spec.skew,
            "quota_per_sec": self.spec.quota_per_sec,
            "admitted": self.admitted,
            "throttled": self.throttled,
            "throttle_wait_us": round(self.throttle_wait_us, 3),
            "backpressured": self.backpressured,
            "completed": self.completed,
            "accesses": self.accesses,
            "hits": self.hits,
            "hit_ratio": (round(self.hits / self.accesses, 6)
                          if self.accesses else 0.0),
            "latency_mean_ms": round(summary["mean_ms"], 6),
            "latency_p95_ms": round(summary["p95_ms"], 6),
            "latency_max_ms": round(summary["max_ms"], 6),
            "shard_requests": {str(shard): self.shard_requests[shard]
                               for shard in sorted(self.shard_requests)},
        }
