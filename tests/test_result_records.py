"""The finished-run half: one record format, one window arithmetic.

What the design guarantees, so that a drift fails a test instead of
being discovered by measurement: every runtime fills the same
``RunResult`` keys, a declared field cannot be left out of ``to_dict``,
``from_dict`` inverts ``to_dict`` with every optional block present,
the counter classes' window/pool arithmetic is consistent, and there
is one nearest-rank percentile.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.bufmgr.manager import AccessStats
from repro.harness.experiment import (ExperimentConfig, RunResult,
                                      run_experiment)
from repro.harness.macro import MacroConfig, MacroResult, run_macro
from repro.obs import MetricsRegistry, Observer
from repro.serve.config import ServeConfig
from repro.serve.frontend import ServeResult, run_serve
from repro.serve.tenants import TenantSpec, TenantState
from repro.sync.stats import LockStats
from repro.util import nearest_rank


def _config(**overrides) -> ExperimentConfig:
    params = dict(system="pgBatPre", workload="tablescan",
                  workload_kwargs={"n_tables": 4, "pages_per_table": 50},
                  n_processors=2, n_threads=2, target_accesses=4_000,
                  seed=42, max_sim_time_us=120_000_000.0)
    params.update(overrides)
    return ExperimentConfig(**params)


def test_every_runtime_fills_the_same_record():
    keys = {runtime: set(run_experiment(_config(runtime=runtime)).to_dict())
            for runtime in ("sim", "native", "mp")}
    assert "runtime" not in keys["sim"]
    assert keys["native"] == keys["mp"] == keys["sim"] | {"runtime"}


@pytest.mark.parametrize("result", [
    pytest.param(lambda: run_experiment(_config()), id="RunResult"),
    pytest.param(lambda: run_macro(MacroConfig(target_queries=24)),
                 id="MacroResult"),
    pytest.param(lambda: run_serve(ServeConfig(
        n_shards=2, n_tenants=2, target_requests=60)), id="ServeResult"),
])
def test_a_declared_field_cannot_miss_the_record(result):
    result = result()
    assert isinstance(result, (RunResult, MacroResult, ServeResult))
    record = result.to_dict()
    for spec in fields(result)[1:]:           # [0] is the config
        if spec.default is None:              # an optional block
            assert getattr(result, spec.name) is None
            continue
        assert type(result).record_key(spec) in record, spec.name
    for key in result.CONFIG_KEYS:
        assert (key[0] if isinstance(key, tuple) else key) in record


@pytest.mark.parametrize("overrides, observed", [
    (dict(), True),
    (dict(controller="threshold"), False),
    (dict(controller="threshold", runtime="native"), True),
])
def test_from_dict_inverts_to_dict_with_the_optional_blocks(overrides,
                                                            observed):
    observer = Observer(metrics=MetricsRegistry()) if observed else None
    result = run_experiment(_config(**overrides), observer=observer)
    record = result.to_dict()
    assert ("metrics" in record) == observed
    assert ("controller" in record) == ("controller" in overrides)
    rebuilt = RunResult.from_dict(record)
    assert rebuilt.to_dict() == record
    assert rebuilt.config.controller == result.config.controller
    assert rebuilt.hit_ratio == result.hit_ratio  # derived, not read back


_ACCESS_A = AccessStats(accesses=9, hits=7, misses=2, evictions=1,
                        write_accesses=3, write_backs=1)
_ACCESS_B = AccessStats(accesses=4, hits=1, misses=3, absorbed_misses=1,
                        stale_hit_retries=2, pinned_victim_skips=5)
_LOCK_A = LockStats(requests=5, contentions=2, acquisitions=5,
                    try_attempts=3, try_failures=1, total_wait_us=12.5,
                    total_hold_us=40.0, max_hold_us=9.0,
                    window_max_hold_us=9.0)
_LOCK_B = LockStats(requests=2, contentions=1, acquisitions=2,
                    total_wait_us=3.0, total_hold_us=8.0, max_hold_us=30.0,
                    window_max_hold_us=30.0)


@pytest.mark.parametrize("a, b", [(_ACCESS_A, _ACCESS_B),
                                  (_LOCK_A, _LOCK_B)])
def test_merge_then_delta_is_the_identity_on_additive_fields(a, b):
    back = a.merged_with(b).delta_since(b)
    for spec in fields(a):
        if "max_hold" not in spec.name:
            assert getattr(back, spec.name) == getattr(a, spec.name)
    snapshot = a.copy()
    assert snapshot == a and snapshot is not a


def test_delta_after_begin_window_reports_the_window_maximum():
    live = LockStats(total_hold_us=900.0, max_hold_us=900.0,
                     window_max_hold_us=900.0)
    live.begin_window()
    snapshot = live.copy()
    live.total_hold_us += 40.0
    live.max_hold_us = max(live.max_hold_us, 40.0)
    live.window_max_hold_us = max(live.window_max_hold_us, 40.0)
    delta = live.delta_since(snapshot)
    assert delta.max_hold_us == delta.window_max_hold_us == 40.0
    assert delta.total_hold_us == pytest.approx(40.0)
    # Pools (shards, mp workers) merge to the larger maximum.
    assert delta.merged_with(LockStats(max_hold_us=55.0)).max_hold_us == 55.0


class TestNearestRank:
    """test_db.py's TransactionLog edge cases, on the one function and
    on the tenant summary that now shares it."""

    def test_edges(self):
        assert nearest_rank([], 95.0) == 0.0
        for percentile in (0.1, 1.0, 50.0, 99.9, 100.0):
            assert nearest_rank([42.0], percentile) == 42.0
        assert nearest_rank([1.0, 3.0, 5.0, 9.0], 100.0) == 9.0
        ties = [10.0, 10.0, 10.0, 20.0]
        assert [nearest_rank(ties, p) for p in (50.0, 75.0, 90.0)] == [
            10.0, 10.0, 20.0]
        hundred = [float(i + 1) for i in range(100)]
        assert nearest_rank(hundred, 95.0) == 95.0

    def test_tenant_summary_uses_it(self):
        tenant = TenantState(TenantSpec(index=0, name="tenant00", pages=8,
                                        skew=0.5, quota_per_sec=None,
                                        quota_burst=1),
                             hot_pages=0, hot_fraction=0.0, hot_skew=0.0)
        assert tenant.latency_summary()["p95_ms"] == 0.0
        tenant.latencies_us.extend([20_000.0, 10_000.0, 10_000.0, 10_000.0])
        summary = tenant.latency_summary()
        assert summary["p95_ms"] == 20.0          # nearest rank, not mean
        assert summary["max_ms"] == 20.0
        assert summary["mean_ms"] == pytest.approx(12.5)
        tenant.latencies_us[:] = [7_000.0]
        assert tenant.latency_summary()["p95_ms"] == 7.0
