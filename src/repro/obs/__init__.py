"""Observability layer: tracing + metrics -> analysis.

See :mod:`repro.obs.observer` for the attachment protocol
(``sim.observer``), :mod:`repro.obs.trace` for the Chrome trace-event
exporter, :mod:`repro.obs.metrics` for the histogram/counter registry
snapshotted into run results, :mod:`repro.obs.telemetry` for
request-scoped trace contexts, windowed time-series and SLO
evaluation, :mod:`repro.obs.export` for the OpenMetrics text exporter
and cross-process snapshot merging, and :mod:`repro.obs.analyze` for
the contention analyzer deriving the paper's diagnostics from those
raw signals. ``docs/observability.md`` has the user-facing guide.
Regressions are gated elsewhere: ``benchmarks/oracle.py`` for
simulated results, the perf ledger for wall clock.
"""

from repro.obs.analyze import analyze_grid, analyze_run
from repro.obs.export import (merge_snapshots, to_openmetrics,
                              write_openmetrics)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.telemetry import (SLOSpec, TelemetrySampler, TimeSeries,
                                 TraceContext, WindowedHistogram,
                                 evaluate_slo)
from repro.obs.trace import TraceRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "SLOSpec",
    "TelemetrySampler",
    "TimeSeries",
    "TraceContext",
    "TraceRecorder",
    "WindowedHistogram",
    "analyze_grid",
    "analyze_run",
    "evaluate_slo",
    "merge_snapshots",
    "to_openmetrics",
    "write_openmetrics",
]
