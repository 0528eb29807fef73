"""Result records, the report model, plain-text tables and CSV emission.

:class:`ResultRecord` is the one way a tier's result dataclass becomes
a flat record: each field is declared once and ``to_dict`` is read off
the declaration. What a sweep shows is declared once too, as a
:class:`Report` built from that record, which :func:`render_text`
prints in the terminal and :func:`repro.harness.dashboard.render_html`
renders as the page. Every figure/table driver returns an
:class:`ArtifactResult`; the rest of this module turns rows into
aligned ASCII tables and CSV. It imports nothing from ``repro``, so
every tier can use it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

__all__ = ["ArtifactResult", "Card", "Mark", "Report", "ResultRecord",
           "Table", "derived", "reported", "render_table", "render_text",
           "rows_to_csv", "format_number", "save_results_json",
           "load_results_json"]


@dataclass(frozen=True)
class Mark:
    """A status cell (SLO ok / VIOLATED): its ``text`` in the terminal,
    a ``css``-classed ``<span>`` on the page."""

    text: str
    css: str


Cell = Union[str, int, float, None, Mark]


# -- the result record --------------------------------------------------------

def reported(key: Optional[str] = None, digits: Optional[int] = None,
             **kwargs):
    """Declare a result field whose record entry is not just
    ``name: value``: stored under ``key``, rounded to ``digits``
    decimals, or (``key=""``) kept out of the record altogether."""
    return field(metadata={"key": key, "digits": digits}, **kwargs)


def derived(digits: Optional[int] = None):
    """Declare a result field that is computed from the counters beside
    it (:attr:`ResultRecord.DERIVED`), never passed in or read back."""
    return reported(digits=digits, init=False)


def _per_second(count: int, elapsed_us: float) -> float:
    return count / (elapsed_us / 1_000_000.0) if elapsed_us > 0 else 0.0


class ResultRecord:
    """What the tiers' frozen result dataclasses share: every field is
    declared once, in record order, and ``to_dict`` is read off the
    declaration.

    A record is ``CONFIG_KEYS`` copied from ``config`` (the machine by
    its name, ``n_threads`` resolved, dicts copied), then every field
    in order (:func:`reported` renames or rounds it), then
    ``runtime`` when it is not the sim default and not a config key,
    then the optional blocks — fields defaulting to None — that are
    present. Sim records therefore do not change when a block or a
    backend is added.
    """

    #: ``config`` attributes that head the record (a pair is
    #: ``(record key, attribute)`` where the two differ).
    CONFIG_KEYS: Tuple[Any, ...] = ()
    #: The ratios the tiers report, each derived in this one place; a
    #: result class opts in by declaring the field :func:`derived`.
    DERIVED: Dict[str, Callable[[Any], Any]] = {
        "hit_ratio": lambda r: r.hits / r.accesses if r.accesses else 0.0,
        "contention_per_million":
            lambda r: r.lock_stats.contentions_per_million(r.accesses),
        "lock_time_per_access_us":
            lambda r: r.lock_stats.lock_time_per_access_us(r.accesses),
        "queries_per_sec": lambda r: _per_second(r.queries, r.elapsed_us),
        "requests_per_sec": lambda r: _per_second(r.requests, r.elapsed_us),
    }

    def __post_init__(self) -> None:
        for spec in fields(self):
            if not spec.init:
                object.__setattr__(self, spec.name,
                                   self.DERIVED[spec.name](self))

    @staticmethod
    def record_key(spec) -> str:
        key = spec.metadata.get("key")
        return spec.name if key is None else key

    @classmethod
    def field_values(cls, record: dict) -> Dict[str, Any]:
        """:meth:`to_dict` read backwards: ``record``'s required fields
        by field name (the config, the derived fields and the optional
        blocks are the caller's to rebuild)."""
        return {spec.name: record[cls.record_key(spec)]
                for spec in fields(cls)[1:]
                if spec.init and spec.default is not None}

    def to_dict(self) -> dict:
        """A JSON-serializable flat record (archiving, replotting);
        deterministic under the sim runtime."""
        config = self.config
        record: Dict[str, Any] = {}
        for key in self.CONFIG_KEYS:
            key, name = key if isinstance(key, tuple) else (key, key)
            value = getattr(config, name)
            if key == "machine":
                value = value.name
            elif key == "n_threads":
                value = config.resolved_threads()
            record[key] = dict(value) if isinstance(value, dict) else value
        blocks = {}
        for spec in fields(self)[1:]:
            key, value = self.record_key(spec), getattr(self, spec.name)
            if not key or (spec.default is None and value is None):
                continue
            if is_dataclass(value):
                value = asdict(value)
            elif spec.metadata.get("digits") is not None:
                value = round(value, spec.metadata["digits"])
            (blocks if spec.default is None else record)[key] = value
        if "runtime" not in record and config.runtime != "sim":
            record["runtime"] = config.runtime
        record.update(blocks)
        return record


# -- tables, CSV, JSON ---------------------------------------------------------


def format_number(value: Cell) -> str:
    """Human-friendly numeric formatting for table cells."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, Mark):
        return value.text
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:,.0f}"
    if magnitude >= 10:
        return f"{value:.1f}"
    if magnitude >= 0.01:
        return f"{value:.3f}"
    return f"{value:.2e}"


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[Cell]],
                 title: str = "") -> str:
    """Render an aligned monospace table."""
    formatted: List[List[str]] = [[format_number(cell) for cell in row]
                                  for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width)
                         for cell, width in zip(cells, widths))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(list(headers)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in formatted)
    return "\n".join(out)


def rows_to_csv(headers: Sequence[str],
                rows: Iterable[Sequence[Cell]]) -> str:
    """The same rows as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def save_results_json(path, results) -> int:
    """Archive a list of :class:`~repro.harness.experiment.RunResult`
    objects as JSON (one flat record each). Returns the record count.
    """
    import json
    records = [result.to_dict() for result in results]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1)
    return len(records)


def load_results_json(path):
    """Read records written by :func:`save_results_json` (plain dicts)."""
    import json
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the report: declared once, rendered as page and as terminal text ----------


@dataclass
class Table:
    """Headers and rows under a title. Inside a :class:`Card` the title
    is a sub-heading; leave it empty when the card's title names the
    table."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[Cell]]


@dataclass
class Card:
    """One titled box of a report. A part is a :class:`Table` or a
    pre-rendered page-only fragment (chart, legend, note) that the
    terminal skips."""

    title: str
    parts: Sequence[Union[Table, str]]


@dataclass
class Report:
    """Everything one sweep shows, selected from its record."""

    title: str
    #: What the numbers were measured on (workload, runtime, seed, ...).
    facts: Sequence[str]
    #: Headline numbers as ``(label, value, detail)``.
    tiles: Sequence[Tuple[str, Cell, str]]
    #: Cards top to bottom; a list of cards is one side-by-side row.
    sections: Sequence[Union[Card, Sequence[Card]]]
    #: Page-only provenance line (pre-rendered).
    footer: str


def render_text(report: Report) -> str:
    """The report for a terminal: facts and tiles as lines, then every
    table through :func:`render_table`."""
    out = [report.title, " · ".join(report.facts), ""]
    for label, value, detail in report.tiles:
        out.append(f"{label}: {format_number(value)} ({detail})")
    for section in report.sections:
        for card in [section] if isinstance(section, Card) else section:
            for part in card.parts:
                if isinstance(part, Table):
                    title = (f"{card.title} — {part.title}" if part.title
                             else card.title)
                    out += ["", render_table(part.headers, part.rows,
                                             title=title)]
    return "\n".join(out)


@dataclass
class ArtifactResult(Table):
    """Structured output of one figure or table driver."""

    notes: str = ""
    #: The runs behind the rows (``RunResult`` objects).
    raw: list = field(default_factory=list)
    #: Pre-rendered ASCII charts (the paper's plot shapes).
    charts: List[str] = field(default_factory=list)

    def render(self, include_charts: bool = False) -> str:
        parts = [render_table(self.headers, self.rows, title=self.title)]
        if self.notes:
            parts.append(self.notes)
        return "\n\n".join(parts + (self.charts if include_charts else []))
