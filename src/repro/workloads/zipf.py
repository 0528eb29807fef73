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
from typing import List, Sequence, TypeVar

from repro.errors import WorkloadError

__all__ = ["ZipfGenerator"]

T = TypeVar("T")


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
        # Draws search a plain Python list: ``bisect`` over the same
        # float64 values returns exactly what ``np.searchsorted(...,
        # side="right")`` would, without numpy's per-call dispatch.
        self.cdf: List[float] = cdf.tolist()
        self._perm: Sequence[int] = range(n)
        if permute:
            perm_rng = np.random.default_rng(permute_seed)
            self._perm = perm_rng.permutation(n).tolist()
        self._ranks = self.table(range(n))

    def table(self, values: Sequence[T]) -> List[T]:
        """The draw table over ``values``: ``table[bisect_right(cdf, u)]``
        is the value of the rank drawn by the uniform ``u``.

        Entry ``i`` holds ``values[perm[i]]``; one more entry repeats the
        last, standing for ``u == 1.0``, which ``random()`` never
        returns. Build tables once and index them per draw.
        """
        if len(values) != self.n:
            raise WorkloadError(
                f"zipf table needs {self.n} values, got {len(values)}")
        table = [values[rank] for rank in self._perm]
        table.append(table[-1])
        return table

    def sample(self, rng: random.Random) -> int:
        """One draw, consuming exactly one uniform from ``rng``."""
        return self._ranks[bisect_right(self.cdf, rng.random())]

    def probability_of_rank(self, rank: int) -> float:
        """P(draw == rank-th hottest) — used by tests."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range [0, {self.n})")
        previous = self.cdf[rank - 1] if rank > 0 else 0.0
        return self.cdf[rank] - previous
