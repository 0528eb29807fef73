"""Bounded Zipf sampling.

Database page popularity is classically Zipf-like (TPC-W item
popularity, hot customers), so every workload here leans on one fast
sampler: the CDF of ``P(k) ∝ 1/k^theta`` over ``n`` ranks is
precomputed with numpy, and each draw is a binary search — O(log n) per
sample with no per-sample allocation, and exactly reproducible from the
caller's ``random.Random`` stream.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import List, Optional

from repro.errors import WorkloadError

__all__ = ["ZipfGenerator"]


class ZipfGenerator:
    """Draw ranks in ``[0, n)`` with Zipf(theta) skew.

    ``theta = 0`` degenerates to uniform; larger theta concentrates
    probability on low ranks. ``permute=True`` applies a fixed
    pseudo-random rank-to-value shuffle so hot items are scattered over
    the value space instead of clustered at its start (hot *pages*
    spread across a table, as in real databases).
    """

    def __init__(self, n: int, theta: float,
                 permute: bool = False,
                 permute_seed: int = 0) -> None:
        if n < 1:
            raise WorkloadError(f"zipf needs n >= 1, got {n}")
        if theta < 0:
            raise WorkloadError(f"zipf needs theta >= 0, got {theta}")
        self.n = n
        self.theta = theta
        # Imported here: runs that draw no Zipf ranks never load numpy.
        import numpy as np
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64),
                                 theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf
        # Draws search plain Python lists: ``bisect`` over the same
        # float64 values returns exactly what ``np.searchsorted(...,
        # side="right")`` would, without numpy's per-call dispatch.
        self._cdf_list: List[float] = cdf.tolist()
        self._perm: Optional[List[int]] = None
        if permute:
            perm_rng = np.random.default_rng(permute_seed)
            self._perm = perm_rng.permutation(n).tolist()

    def sample(self, rng: random.Random) -> int:
        """One draw, consuming exactly one uniform from ``rng``."""
        rank = bisect_right(self._cdf_list, rng.random())
        if rank >= self.n:  # guard the u == 1.0 edge
            rank = self.n - 1
        if self._perm is not None:
            return self._perm[rank]
        return rank

    def probability_of_rank(self, rank: int) -> float:
        """P(draw == rank-th hottest) — used by tests."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range [0, {self.n})")
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - previous)
