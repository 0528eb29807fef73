"""Perf-baseline store: record, compare, and gate on regressions.

The parallel-engine PR made the hot paths ~1.7x faster; nothing since
has *kept* them fast — a hot-path regression would ship silently.
This module is the gate: a small JSON store (``BENCH_baseline.json``)
holding named perf metrics, plus a bounded history ("trajectory") so
the numbers can be plotted over time.

Every metric is a deterministic simulated-time quantity (throughput of
a fixed-seed run, lock time per access): bit-stable across hosts, so
the tolerance is tight (5%) and a committed baseline is comparable
anywhere. Wall-clock speed is not measured here — the host-normalised
perf ledger (``benchmarks/ledger/``) is the one instrument for that.

``compare_baseline`` is pure; the ``cli perf-diff`` subcommand wraps
it with measurement and process exit codes (non-zero on regression)
for CI.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "BaselineDiff",
    "TOLERANCE",
    "compare_baseline",
    "load_baseline",
    "measure_current",
    "record_baseline",
]

SCHEMA_VERSION = 1

#: Relative tolerance a metric gets when its entry sets none: the
#: gate metrics are exact for a given seed, so 5% is all the slack a
#: deliberate behaviour change should need before re-recording.
TOLERANCE = 0.05

#: History entries kept in the trajectory (oldest dropped first).
MAX_HISTORY = 50


def _metric(value: float, kind: str, direction: str = "higher",
            unit: str = "", tolerance: Optional[float] = None) -> dict:
    entry = {"value": value, "kind": kind, "direction": direction,
             "unit": unit}
    if tolerance is not None:
        entry["tolerance"] = tolerance
    return entry


@dataclass
class BaselineDiff:
    """The outcome of one baseline comparison."""

    #: One row per compared metric: name, baseline, current, change
    #: (signed fraction), tolerance, status (ok/regression/improved/new).
    rows: List[dict] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def load_baseline(path) -> Optional[dict]:
    """Read a baseline document, or ``None`` if the file is absent."""
    path = pathlib.Path(path)
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    if document.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has baseline schema version "
            f"{document.get('version')!r}, expected {SCHEMA_VERSION}")
    return document


def record_baseline(path, metrics: Dict[str, dict],
                    note: str = "") -> pathlib.Path:
    """Write ``metrics`` as the new baseline, appending the trajectory.

    Keeps the previous document's history (bounded at
    :data:`MAX_HISTORY`) and appends one entry per call, so repeated
    ``record``/``update`` runs build the perf trajectory instead of
    erasing it.
    """
    path = pathlib.Path(path)
    previous = load_baseline(path) if path.exists() else None
    history = list(previous.get("history", [])) if previous else []
    history.append({
        "recorded_unix": int(time.time()),
        "note": note,
        "metrics": {name: entry["value"]
                    for name, entry in sorted(metrics.items())},
    })
    document = {
        "version": SCHEMA_VERSION,
        "metrics": {name: metrics[name] for name in sorted(metrics)},
        "history": history[-MAX_HISTORY:],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def compare_baseline(baseline: dict, current: Dict[str, dict],
                     tolerance_override: Optional[float] = None
                     ) -> BaselineDiff:
    """Compare ``current`` metrics against a baseline document.

    A metric regresses when it moves against its ``direction`` by more
    than its tolerance (entry override, else :data:`TOLERANCE`, else
    ``tolerance_override`` over everything when given). Metrics absent
    from either side never fail the gate: a new metric reports as
    ``new``, a vanished one is ignored — so adding instrumentation
    can't break CI retroactively.
    """
    diff = BaselineDiff()
    base_metrics = baseline.get("metrics", {})
    for name in sorted(current):
        entry = current[name]
        base = base_metrics.get(name)
        if base is None:
            diff.rows.append({"metric": name, "baseline": None,
                              "current": entry["value"], "change": None,
                              "tolerance": None, "status": "new"})
            continue
        tolerance = (tolerance_override
                     if tolerance_override is not None
                     else base.get("tolerance", TOLERANCE))
        base_value = base["value"]
        value = entry["value"]
        if base_value:
            change = (value - base_value) / abs(base_value)
        else:
            change = 0.0 if value == 0 else float("inf")
        signed = change if base["direction"] == "higher" else -change
        if signed < -tolerance:
            status = "regression"
            diff.regressions.append(name)
        elif signed > tolerance:
            status = "improved"
            diff.improvements.append(name)
        else:
            status = "ok"
        diff.rows.append({"metric": name, "baseline": base_value,
                          "current": value, "change": round(change, 4),
                          "tolerance": tolerance, "status": status})
    return diff


# -- measurement ----------------------------------------------------------

#: The fixed gate configurations: small enough for seconds-long CI
#: runs, contended enough that a hot-path or batching regression moves
#: the numbers.
GATE_CONFIGS = (
    ("pg2Q", 8),
    ("pgBatPre", 8),
)


def measure_current(seed: int = 7,
                    target_accesses: int = 3_000) -> Dict[str, dict]:
    """Measure the gate metrics on this checkout.

    Deterministic for a given seed/target, so the committed baseline
    is comparable on any machine.
    """
    from repro.harness.experiment import ExperimentConfig, run_experiment

    metrics: Dict[str, dict] = {}
    for system, processors in GATE_CONFIGS:
        config = ExperimentConfig(
            system=system, workload="tablescan",
            workload_kwargs={"n_tables": 4, "pages_per_table": 50},
            n_processors=processors, n_threads=processors,
            target_accesses=target_accesses, seed=seed)
        result = run_experiment(config)
        metrics[f"sim.{system}.tps"] = _metric(
            round(result.throughput_tps, 3), "sim", "higher", "tps")
        metrics[f"sim.{system}.lock_us_per_access"] = _metric(
            round(result.lock_time_per_access_us, 4), "sim", "lower",
            "us")
    return metrics
