"""Deterministic random-stream utilities.

Every stochastic component in the reproduction (workload generators,
think times, transaction mixes) draws from its own :class:`random.Random`
stream derived from a root seed plus a structural key. Deriving streams
by hashing keys — rather than by drawing sub-seeds sequentially — makes a
component's stream independent of how many *other* components exist, so
adding a thread or a workload never perturbs the accesses of existing
ones. That stability is what makes run-to-run comparisons (batching on
vs. off, 4 CPUs vs. 16) apples-to-apples.
"""

from __future__ import annotations

import hashlib
import random
from typing import Union

__all__ = ["split_seed", "stream_rng"]

_Key = Union[str, int]


def split_seed(root_seed: int, *keys: _Key) -> int:
    """Derive a child seed from ``root_seed`` and a structural key path.

    The derivation is a SHA-256 hash of the root seed and the key path,
    truncated to 63 bits, so it is stable across processes and Python
    versions (unlike ``hash()``).

    >>> split_seed(42, "dbt1", "thread", 3) == split_seed(42, "dbt1", "thread", 3)
    True
    >>> split_seed(42, "a") != split_seed(42, "b")
    True
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode("ascii"))
    for key in keys:
        hasher.update(b"/")
        hasher.update(str(key).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big") & (2**63 - 1)


def stream_rng(root_seed: int, *keys: _Key) -> random.Random:
    """A fresh :class:`random.Random` seeded by :func:`split_seed`."""
    return random.Random(split_seed(root_seed, *keys))
