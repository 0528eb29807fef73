"""Relation and schema descriptors.

A :class:`Relation` is a named, contiguous space of pages — a table, an
index, a heap of history rows. Workload generators compose relations
into a :class:`Schema` and emit :class:`~repro.bufmgr.tags.PageId`
accesses against them; nothing here stores tuples, because the
experiments only care about *which page* is touched and in *what
order*.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.bufmgr.tags import PageId
from repro.errors import WorkloadError

__all__ = ["Relation", "Schema"]


class Relation:
    """A named contiguous run of ``n_pages`` pages."""

    def __init__(self, name: str, n_pages: int) -> None:
        if n_pages < 1:
            raise WorkloadError(
                f"relation {name!r} needs >= 1 page, got {n_pages}")
        self.name = name
        self.n_pages = n_pages
        #: All pages in block order, built once: every name of one page
        #: is the same object, and generators that compute an in-range
        #: block index this tuple directly.
        self.pages = tuple(PageId(name, block) for block in range(n_pages))

    def page(self, block: int) -> PageId:
        if not 0 <= block < self.n_pages:
            raise WorkloadError(
                f"block {block} out of range for {self.name!r} "
                f"({self.n_pages} pages)")
        return self.pages[block]

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.n_pages})"


class Schema:
    """A named collection of relations."""

    def __init__(self, relations: Iterable[Relation]) -> None:
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise WorkloadError(f"duplicate relation {relation.name!r}")
            self._relations[relation.name] = relation

    def __getitem__(self, name: str) -> Relation:
        relation = self._relations.get(name)
        if relation is None:
            raise WorkloadError(
                f"unknown relation {name!r}; have "
                f"{sorted(self._relations)}")
        return relation

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relations(self) -> List[Relation]:
        return list(self._relations.values())

    @property
    def total_pages(self) -> int:
        return sum(r.n_pages for r in self._relations.values())

    def all_pages(self) -> Iterator[PageId]:
        for relation in self._relations.values():
            yield from relation.pages
