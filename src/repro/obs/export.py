"""OpenMetrics/Prometheus text export and snapshot merging.

:func:`to_openmetrics` renders any
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` document in the
OpenMetrics text exposition format — counters as ``_total``, gauges as
value + ``_max`` pairs, log-bucketed histograms as cumulative ``le``
buckets with ``_sum``/``_count`` — so a run's registry can land in any
Prometheus-compatible scraper or diffing tool. The output is a pure
function of the snapshot (names sorted, floats formatted with
``repr``), so a deterministic sim run exports byte-identical text; CI
``cmp``'s two same-seed exports.

:func:`merge_snapshots` is the cross-process aggregation primitive:
counters sum, gauges widen (max value and max peak), histograms fold
bucket-wise via :meth:`~repro.obs.metrics.Histogram.merge` — exactly
the machinery the ``mp`` backend uses to combine per-worker snapshots
into one registry, and ``cli serve --telemetry`` uses to merge
per-cell registries into one sweep-wide export.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "merge_snapshots",
    "sanitize_metric_name",
    "to_openmetrics",
    "write_openmetrics",
]

_ALLOWED = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the OpenMetrics charset.

    Dots (and anything else outside ``[a-zA-Z0-9_:]``) become
    underscores; a leading digit gets a ``_`` prefix. The mapping is
    not injective in general, but the registry's dotted, lowercase
    naming convention keeps it collision-free in practice.
    """
    mapped = "".join(ch if ch in _ALLOWED else "_" for ch in name)
    if mapped and mapped[0].isdigit():
        mapped = "_" + mapped
    return mapped


def _fmt(value: float) -> str:
    """Deterministic number rendering (ints without a trailing .0)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_openmetrics(snapshot: dict, prefix: str = "repro") -> str:
    """Render a registry snapshot as OpenMetrics text exposition.

    Families are emitted sorted by name within each instrument kind
    (counters, then gauges, then histograms), ending with the
    mandatory ``# EOF`` line. Histogram buckets use the registry's
    power-of-two upper bounds as ``le`` labels (cumulative, with a
    final ``+Inf`` bucket equal to ``_count``).
    """
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_fmt(value)}")
    for name in sorted(snapshot.get("gauges", {})):
        entry = snapshot["gauges"][name]
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(entry['value'])}")
        if entry.get("max") is not None:
            lines.append(f"# TYPE {metric}_max gauge")
            lines.append(f"{metric}_max {_fmt(entry['max'])}")
    for name in sorted(snapshot.get("histograms", {})):
        entry = snapshot["histograms"][name]
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        buckets = {int(k): int(v)
                   for k, v in entry.get("buckets", {}).items()}
        cumulative = 0
        for index in sorted(buckets):
            cumulative += buckets[index]
            bound = Histogram.bucket_upper_bound(index)
            lines.append(
                f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {entry["count"]}')
        lines.append(f"{metric}_sum {_fmt(entry['sum_us'])}")
        lines.append(f"{metric}_count {entry['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path, snapshot: dict,
                      prefix: str = "repro") -> pathlib.Path:
    """Serialize :func:`to_openmetrics` to ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_openmetrics(snapshot, prefix=prefix))
    return path


def merge_snapshots(snapshots: Iterable[Dict]) -> dict:
    """Fold many registry snapshots into one (order-independent).

    Counters add, gauge values/peaks take the maximum across inputs,
    histograms merge bucket-wise — merging N per-worker snapshots is
    exactly what recording their combined observation streams into one
    registry would have produced (modulo gauge last-write order, which
    is why gauges widen instead).
    """
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()
