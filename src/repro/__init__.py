"""repro — a faithful reproduction of BP-Wrapper (ICDE 2009).

    Xiaoning Ding, Song Jiang, Xiaodong Zhang:
    "BP-Wrapper: A System Framework Making Any Replacement Algorithms
    (Almost) Lock Contention Free"

The package contains everything the paper's evaluation needs, built
from scratch:

* fourteen buffer replacement algorithms (:mod:`repro.policies`);
* a DBMS buffer manager with descriptors, a bucket-locked hash table
  and pin semantics (:mod:`repro.bufmgr`);
* BP-Wrapper itself — per-thread FIFO queues, TryLock batching and
  software prefetching (:mod:`repro.core`);
* a deterministic discrete-event multiprocessor simulator standing in
  for the paper's 16-CPU Altix 350 / 8-core PowerEdge 2900
  (:mod:`repro.simcore`, :mod:`repro.hardware`, :mod:`repro.sync`);
* the three evaluation workloads — DBT-1 (TPC-W-like), DBT-2
  (TPC-C-like), TableScan (:mod:`repro.workloads`);
* an experiment harness regenerating every figure and table of the
  evaluation section (:mod:`repro.harness`).

Quickstart::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        system="pgBatPre", workload="dbt1",
        workload_kwargs={"scale": 0.2}, n_processors=16))
    print(result.summary())

See also ``examples/`` and ``python -m repro.harness.cli all``.
"""

from repro.analysis import replay, replay_through_wrapper, sweep_capacity
from repro.bufmgr import BufferManager, PageId
from repro.errors import (BufferError_, ConfigError, LockError, PolicyError,
                          ReproError, SimulationError, WorkloadError)
from repro.hardware import ALTIX_350, POWEREDGE_2900, CostModel, MachineSpec
from repro.harness import (ExperimentConfig, RunResult, build_system,
                           run_experiment)
from repro.policies import (ReplacementPolicy, available_policies,
                            make_policy)
from repro.simcore import Simulator
from repro.workloads import available_workloads, make_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "SimulationError", "LockError", "BufferError_",
    "PolicyError", "WorkloadError", "ConfigError",
    # policies
    "ReplacementPolicy", "make_policy", "available_policies",
    # buffer manager & wrapper
    "BufferManager", "PageId",
    # hardware & simulation
    "Simulator", "CostModel", "MachineSpec", "ALTIX_350", "POWEREDGE_2900",
    # workloads
    "make_workload", "available_workloads",
    # harness
    "ExperimentConfig", "RunResult", "run_experiment", "build_system",
    # analysis
    "replay", "replay_through_wrapper", "sweep_capacity",
]
