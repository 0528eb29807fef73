"""Parameter sweeps shared by the figure and table drivers.

All experiment volume knobs live here so the benchmarks can be scaled
with one environment variable:

* ``REPRO_BENCH_SCALE`` — float multiplier on the per-run access
  target (default 1.0). ``REPRO_BENCH_SCALE=0.25`` quarters every
  run's length for quick iterations; the paper's shapes are already
  stable at the default.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350, MachineSpec
from repro.harness.experiment import ExperimentConfig, RunResult, run_experiment
from repro.harness.parallel import Workers, resolve_workers, run_many
from repro.workloads.base import Workload

__all__ = [
    "bench_scale",
    "default_target_accesses",
    "default_workload_kwargs",
    "observed_grid",
    "processor_sweep",
    "run_matrix",
    "sweep_configs",
]

#: The three paper workloads, in the paper's order.
PAPER_WORKLOADS = ("dbt1", "dbt2", "tablescan")


def bench_scale() -> float:
    """The ``REPRO_BENCH_SCALE`` multiplier (default 1.0)."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad REPRO_BENCH_SCALE={raw!r}") from exc
    if scale <= 0:
        raise ConfigError(f"REPRO_BENCH_SCALE must be positive, got {scale}")
    return scale


def default_target_accesses(base: int = 40_000) -> int:
    """Per-run access target, scaled by the benchmark knob."""
    return max(4_000, int(base * bench_scale()))


def default_workload_kwargs(name: str) -> Dict[str, object]:
    """Scaled-down-but-shaped parameters for the paper's workloads.

    The paper's data sets (6.8 GB / 25.6 GB / 20 x 3200-page tables) are
    shrunk so the simulator finishes in seconds; the *shapes* (skew,
    mixes, per-warehouse layout) are preserved, which is what the lock
    and hit-ratio behaviour depend on.
    """
    if name == "dbt1":
        return {"scale": 0.2}
    if name == "dbt2":
        return {"n_warehouses": 10}
    if name == "tablescan":
        return {"n_tables": 20, "pages_per_table": 200}
    if name == "tpcc_lite":
        return {"n_warehouses": 4}
    return {}


def default_threads(name: str, n_processors: int) -> Optional[int]:
    """Thread count per workload (TableScan runs its 20 queries)."""
    if name == "tablescan":
        return max(20, 2 * n_processors)
    return None  # ExperimentConfig's overcommit default.


def sweep_configs(system: str, workload_name: str,
                  machine: MachineSpec = ALTIX_350,
                  processors: Optional[Sequence[int]] = None,
                  target_accesses: Optional[int] = None,
                  seed: int = 42,
                  **config_overrides) -> List[ExperimentConfig]:
    """The configs of one system/workload processor sweep, in order."""
    if processors is None:
        processors = machine.processor_steps
    if target_accesses is None:
        target_accesses = default_target_accesses()
    kwargs = default_workload_kwargs(workload_name)
    return [
        ExperimentConfig(
            system=system, workload=workload_name,
            workload_kwargs=kwargs, machine=machine,
            n_processors=n_processors,
            n_threads=default_threads(workload_name, n_processors),
            target_accesses=target_accesses, seed=seed,
            **config_overrides)
        for n_processors in processors
    ]


def processor_sweep(system: str, workload_name: str,
                    machine: MachineSpec = ALTIX_350,
                    processors: Optional[Sequence[int]] = None,
                    target_accesses: Optional[int] = None,
                    seed: int = 42,
                    workload: Optional[Workload] = None,
                    max_workers: Workers = None,
                    **config_overrides) -> List[RunResult]:
    """Run one system/workload across processor counts.

    ``max_workers`` (or ``REPRO_PARALLEL``) fans the runs out over a
    process pool with deterministic, submission-ordered results; the
    serial path may amortize a caller-supplied ``workload`` instance.
    """
    configs = sweep_configs(system, workload_name, machine=machine,
                            processors=processors,
                            target_accesses=target_accesses, seed=seed,
                            **config_overrides)
    if workload is not None and resolve_workers(max_workers) <= 1:
        return [run_experiment(config, workload=workload)
                for config in configs]
    return run_many(configs, max_workers=max_workers)


def observed_grid(systems: Sequence[str], workload_name: str,
                  processors: Sequence[int],
                  machine: MachineSpec = ALTIX_350,
                  target_accesses: Optional[int] = None,
                  seed: int = 42,
                  **config_overrides):
    """Run a systems x processors grid with the observability layer on.

    Every cell gets its *own* fresh :class:`~repro.obs.Observer`
    (trace + metrics) — the analyzer needs per-run signals, and a
    shared recorder would interleave grids into one undiffable soup.
    Runs execute serially in grid order (system-major): observers
    cannot cross process boundaries, so the parallel engine does not
    apply here, and the cells are deliberately small. Returns
    ``(results, recorders)``, index-aligned.
    """
    from repro.obs import MetricsRegistry, Observer, TraceRecorder

    if target_accesses is None:
        target_accesses = default_target_accesses()
    kwargs = default_workload_kwargs(workload_name)
    results = []
    recorders = []
    for system in systems:
        for n_processors in processors:
            recorder = TraceRecorder()
            observer = Observer(trace=recorder,
                                metrics=MetricsRegistry())
            config = ExperimentConfig(
                system=system, workload=workload_name,
                workload_kwargs=kwargs, machine=machine,
                n_processors=n_processors,
                n_threads=default_threads(workload_name, n_processors),
                target_accesses=target_accesses, seed=seed,
                **config_overrides)
            results.append(run_experiment(config, observer=observer))
            recorders.append(recorder)
    return results, recorders


def run_matrix(systems: Iterable[str], workload_names: Iterable[str],
               machine: MachineSpec = ALTIX_350,
               processors: Optional[Sequence[int]] = None,
               target_accesses: Optional[int] = None,
               seed: int = 42,
               max_workers: Workers = None,
               **config_overrides) -> List[RunResult]:
    """The full Fig. 6/7 grid: systems x workloads x processor counts.

    The whole grid is submitted as one batch so a worker pool sees
    every independent run at once; results come back in the serial
    iteration order (workload-major, then system, then processors) and
    are bit-identical to the serial path's.
    """
    configs: List[ExperimentConfig] = []
    for workload_name in workload_names:
        for system in systems:
            configs.extend(sweep_configs(
                system, workload_name, machine=machine,
                processors=processors, target_accesses=target_accesses,
                seed=seed, **config_overrides))
    return run_many(configs, max_workers=max_workers)
