"""Drivers regenerating the paper's tables.

* :func:`table1` — the five tested systems (static; Table I);
* :func:`table2` — queue-size sensitivity: sizes 2..64 with the batch
  threshold at half the queue size, 16 processors (Table II);
* :func:`table3` — batch-threshold sensitivity: thresholds 2..64 at
  queue size 64 (Table III).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.hardware.machines import ALTIX_350
from repro.harness.experiment import ExperimentConfig
from repro.harness.parallel import Workers, run_many
from repro.harness.report import ArtifactResult
from repro.harness.sweeps import (PAPER_WORKLOADS, default_target_accesses,
                                  default_threads, default_workload_kwargs)
from repro.harness.systems import SYSTEM_NAMES, system_spec

__all__ = ["table1", "table2", "table3"]

#: Queue sizes swept in Table II (threshold = size / 2).
TABLE2_QUEUE_SIZES = (2, 4, 8, 16, 32, 64)
#: Batch thresholds swept in Table III (queue size fixed at 64).
TABLE3_THRESHOLDS = (2, 4, 8, 16, 32, 64)


def table1() -> ArtifactResult:
    """Table I: names, algorithms and enhancements of the five systems."""
    rows = []
    for name in SYSTEM_NAMES:
        spec = system_spec(name)
        rows.append((spec.name, spec.policy_name, spec.enhancement))
    return ArtifactResult(
        title="Table I: the five tested systems",
        headers=("Name", "Replacement", "Enhancement"),
        rows=rows)


def _sensitivity_table(title: str, swept: str, notes: str,
                       settings: Sequence[Tuple[int, int, int]],
                       target_accesses: Optional[int], seed: int,
                       max_workers: Workers) -> ArtifactResult:
    """pgBat throughput & contention on every paper workload, one row
    per ``(row label, queue size, batch threshold)`` setting."""
    if target_accesses is None:
        target_accesses = default_target_accesses()
    configs = [
        ExperimentConfig(
            system="pgBat", workload=workload_name,
            workload_kwargs=default_workload_kwargs(workload_name),
            machine=ALTIX_350, n_processors=16,
            n_threads=default_threads(workload_name, 16),
            queue_size=queue_size, batch_threshold=batch_threshold,
            target_accesses=target_accesses, seed=seed)
        for _, queue_size, batch_threshold in settings
        for workload_name in PAPER_WORKLOADS]
    raw = run_many(configs, max_workers=max_workers)
    rows: List[Sequence[object]] = []
    per_setting = len(PAPER_WORKLOADS)
    for i, (label, _, _) in enumerate(settings):
        results = raw[i * per_setting:(i + 1) * per_setting]
        by_name = {r.config.workload: r for r in results}
        rows.append((
            label,
            round(by_name["dbt1"].throughput_tps, 1),
            round(by_name["dbt2"].throughput_tps, 1),
            round(by_name["tablescan"].throughput_tps, 2),
            round(by_name["dbt1"].contention_per_million, 1),
            round(by_name["dbt2"].contention_per_million, 1),
            round(by_name["tablescan"].contention_per_million, 1),
        ))
    return ArtifactResult(
        title=title,
        headers=(swept, "tps DBT-1", "tps DBT-2", "tps TableScan",
                 "cont/M DBT-1", "cont/M DBT-2", "cont/M TableScan"),
        rows=rows, notes=notes, raw=raw)


def table2(target_accesses: Optional[int] = None,
           seed: int = 42, max_workers: Workers = None) -> ArtifactResult:
    """Table II: throughput & contention vs. queue size (thr = size/2)."""
    return _sensitivity_table(
        "Table II: pgBat vs queue size "
        "(threshold = size/2, 16 processors)", "queue",
        "Paper shape: contention falls monotonically with queue "
        "size; throughput saturates beyond size ~8; even size 2 "
        "beats pg2Q.",
        [(size, size, max(1, size // 2)) for size in TABLE2_QUEUE_SIZES],
        target_accesses, seed, max_workers)


def table3(target_accesses: Optional[int] = None,
           seed: int = 42, max_workers: Workers = None) -> ArtifactResult:
    """Table III: throughput & contention vs. batch threshold (size 64)."""
    return _sensitivity_table(
        "Table III: pgBat vs batch threshold "
        "(queue size 64, 16 processors)", "threshold",
        "Paper shape: contention is U-shaped — premature commits "
        "below ~32, and at threshold = queue size the TryLock "
        "opportunity disappears and contention jumps.",
        [(threshold, 64, threshold) for threshold in TABLE3_THRESHOLDS],
        target_accesses, seed, max_workers)
