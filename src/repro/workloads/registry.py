"""Workload registry: construct the paper's workloads by name."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.workloads.base import Workload
from repro.workloads.dbt1 import DBT1Workload
from repro.workloads.dbt2 import DBT2Workload
from repro.workloads.tablescan import TableScanWorkload
from repro.workloads.tpcc_lite import TpccLiteWorkload

__all__ = ["available_workloads", "make_workload"]

_REGISTRY: Dict[str, Callable[..., Workload]] = {
    DBT1Workload.name: DBT1Workload,
    DBT2Workload.name: DBT2Workload,
    TableScanWorkload.name: TableScanWorkload,
    TpccLiteWorkload.name: TpccLiteWorkload,
}


def available_workloads() -> List[str]:
    """Sorted names of all registered workloads."""
    return sorted(_REGISTRY)


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate the workload registered under ``name``."""
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        raise ConfigError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(available_workloads())}")
    return factory(**kwargs)
