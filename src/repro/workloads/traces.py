"""Explicit page traces.

Two tools used by tests, examples and the hit-ratio studies:

* :class:`TraceWorkload` — wraps a literal list of page accesses as a
  workload (every thread replays its own copy), handy for hand-worked
  policy scenarios inside the full DES;
* :class:`SyntheticTrace` — a composable generator of classic
  access-pattern building blocks (Zipf mixes, sequential scans, loops)
  producing plain :class:`~repro.bufmgr.tags.PageId` lists for the
  fast hit-ratio simulator.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence

from repro.bufmgr.tags import PageId
from repro.db.relations import Relation, Schema
from repro.db.transactions import Transaction
from repro.errors import WorkloadError
from repro.simcore.rng import stream_rng
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfGenerator

__all__ = ["TraceWorkload", "SyntheticTrace", "save_trace", "load_trace"]


def save_trace(path, accesses: Sequence[PageId]) -> int:
    """Write an access trace as text: one ``space block`` pair per line.

    Returns the number of accesses written. The format is the common
    denominator of published buffer traces (and trivially diffable);
    lines starting with ``#`` are comments.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro access trace: <space> <block>\n")
        for page in accesses:
            handle.write(f"{page.space} {page.block}\n")
    return len(accesses)


def load_trace(path) -> List[PageId]:
    """Read a trace written by :func:`save_trace` (or hand-authored).

    Raises :class:`~repro.errors.WorkloadError` with the offending line
    number on malformed input, and naming the file on bytes that are
    not UTF-8 (a file cut mid-character, or not a trace at all).
    """
    accesses: List[PageId] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                parts = stripped.split()
                if len(parts) != 2:
                    raise WorkloadError(
                        f"{path}:{line_number}: expected 'space block', "
                        f"got {stripped!r}")
                try:
                    block = int(parts[1])
                except ValueError as exc:
                    raise WorkloadError(
                        f"{path}:{line_number}: block must be an "
                        f"integer, got {parts[1]!r}") from exc
                accesses.append(PageId(parts[0], block))
    except UnicodeDecodeError as exc:
        raise WorkloadError(
            f"{path}: not UTF-8 text ({exc.reason}); truncated or not "
            f"a trace file") from exc
    if not accesses:
        raise WorkloadError(f"{path}: trace contains no accesses")
    return accesses


class TraceWorkload(Workload):
    """Replay an explicit access list, chunked into transactions."""

    name = "trace"

    @classmethod
    def from_file(cls, path, accesses_per_transaction: int = 16,
                  seed: int = 0) -> "TraceWorkload":
        """Build a workload from a trace file (see :func:`load_trace`)."""
        return cls(load_trace(path),
                   accesses_per_transaction=accesses_per_transaction,
                   seed=seed)

    def __init__(self, accesses: Sequence[PageId],
                 accesses_per_transaction: int = 16,
                 seed: int = 0) -> None:
        super().__init__(seed)
        if not accesses:
            raise WorkloadError("trace must contain at least one access")
        if accesses_per_transaction < 1:
            raise WorkloadError("accesses_per_transaction must be >= 1")
        self._accesses = list(accesses)
        self._chunk = accesses_per_transaction
        spaces = {}
        for page in self._accesses:
            spaces[page.space] = max(spaces.get(page.space, 0),
                                     page.block + 1)
        self._schema = Schema([Relation(str(space), blocks)
                               for space, blocks in sorted(
                                   spaces.items(), key=lambda kv: str(kv[0]))])

    @property
    def schema(self) -> Schema:
        return self._schema

    def working_set_pages(self) -> List[PageId]:
        # Only the pages actually accessed, deduplicated in first-touch
        # order (the schema may be sparse).
        seen = dict.fromkeys(self._accesses)
        return list(seen)

    def transaction_stream(self, thread_index: int
                           ) -> Iterator[Transaction]:
        while True:
            for start in range(0, len(self._accesses), self._chunk):
                chunk = self._accesses[start:start + self._chunk]
                yield Transaction("trace", chunk)


class SyntheticTrace:
    """Builder of synthetic access sequences for hit-ratio studies."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._accesses: List[PageId] = []

    @property
    def accesses(self) -> List[PageId]:
        return list(self._accesses)

    def __len__(self) -> int:
        return len(self._accesses)

    def _rng(self, label: str) -> random.Random:
        return stream_rng(self.seed, "synthetic", label,
                          len(self._accesses))

    def zipf(self, space: str, n_pages: int, n_accesses: int,
             theta: float = 0.8) -> "SyntheticTrace":
        """Append Zipf-skewed accesses over ``n_pages``."""
        rng = self._rng(f"zipf-{space}")
        generator = ZipfGenerator(n_pages, theta, permute=True,
                                  permute_seed=self.seed)
        self._accesses.extend(
            PageId(space, generator.sample(rng))
            for _ in range(n_accesses))
        return self

    def scan(self, space: str, n_pages: int,
             repeats: int = 1) -> "SyntheticTrace":
        """Append ``repeats`` full sequential scans."""
        for _ in range(repeats):
            self._accesses.extend(PageId(space, block)
                                  for block in range(n_pages))
        return self

    def loop(self, space: str, n_pages: int,
             n_accesses: int) -> "SyntheticTrace":
        """Append a cyclic loop reference pattern (LRU's nemesis)."""
        self._accesses.extend(PageId(space, i % n_pages)
                              for i in range(n_accesses))
        return self

    def uniform(self, space: str, n_pages: int,
                n_accesses: int) -> "SyntheticTrace":
        """Append uniformly random accesses."""
        rng = self._rng(f"uniform-{space}")
        self._accesses.extend(PageId(space, rng.randrange(n_pages))
                              for _ in range(n_accesses))
        return self

    def interleave(self, other: "SyntheticTrace",
                   granularity: int = 1) -> "SyntheticTrace":
        """Round-robin merge with another trace (mixed workloads)."""
        merged: List[PageId] = []
        a, b = self._accesses, other._accesses
        ia = ib = 0
        while ia < len(a) or ib < len(b):
            merged.extend(a[ia:ia + granularity])
            ia += granularity
            merged.extend(b[ib:ib + granularity])
            ib += granularity
        result = SyntheticTrace(self.seed)
        result._accesses = merged
        return result
