"""The ``mp`` backend: correctness of the shared-memory process runs.

Wall-clock *numbers* from :mod:`repro.runtime.mp` are host-dependent
by design, so these tests assert what is invariant on any machine:
conservation laws (hits + misses = accesses), the per-system lock
disciplines (pg2Q locks every hit, pgBat locks once per batch,
pgclock never locks a hit), configuration rejections, and the record
round-trip. Worker counts stay at 1-2 so the suite is container-sized.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, RunResult,
                                      run_experiment)


def _run(system: str, workers: int = 2, **overrides) -> RunResult:
    params = dict(system=system, workload="tablescan", runtime="mp",
                  n_processors=workers, target_accesses=8_000,
                  warmup_fraction=0.0, seed=23,
                  max_sim_time_us=120_000_000.0)
    params.update(overrides)
    return run_experiment(ExperimentConfig(**params))


def test_prewarmed_run_is_miss_free_and_conserves_counts():
    result = _run("pgBat")
    assert result.misses == 0
    assert result.hit_ratio == 1.0
    assert result.hits == result.accesses
    assert result.accesses >= 8_000 - 2  # per-worker integer quotas
    assert result.transactions > 0
    assert result.throughput_tps > 0
    assert result.elapsed_us > 0


def test_pg2q_locks_every_hit():
    result = _run("pg2Q")
    stats = result.lock_stats
    # One blocking request per access (hit or miss), no TryLock at all.
    assert stats.requests == result.accesses
    assert stats.acquisitions == stats.requests
    assert stats.try_attempts == 0
    assert stats.total_hold_us > 0


def test_pgbat_amortizes_the_lock():
    result = _run("pgBat", queue_size=64, batch_threshold=32)
    stats = result.lock_stats
    # Batching: at most one acquisition per threshold-sized batch
    # (plus the final flush per worker), never one per access.
    assert 0 < stats.acquisitions <= result.accesses // 32 + 4
    assert stats.try_attempts > 0
    assert result.mean_batch_size >= 32 * 0.9
    assert result.stale_queue_entries == 0  # miss-free: nothing staled


def test_pgclock_hits_are_lock_free():
    result = _run("pgclock")
    assert result.misses == 0
    assert result.lock_stats.requests == 0
    assert result.lock_stats.try_attempts == 0
    assert result.contention_per_million == 0.0


@pytest.mark.parametrize("system", ["pgBat", "pgclock"])
def test_eviction_path_conserves_counts(system):
    result = _run(system, workload="dbt2", buffer_pages=250,
                  target_accesses=6_000, seed=31)
    assert result.misses > 0
    assert result.hits + result.misses == result.accesses
    assert 0.0 < result.hit_ratio < 1.0
    # Every miss took the replacement lock.
    assert result.lock_stats.acquisitions >= result.misses


def test_response_samples_start_with_the_measurement_window(monkeypatch):
    """p95 used to be taken over the first 2,000 transactions of each
    worker, warm-up included, beside a post-warm-up mean."""
    from repro.runtime import mp

    seen = []
    fold = mp._fold

    def spy(config, run):
        seen.extend(thread.result for thread in run.threads)
        return fold(config, run)

    monkeypatch.setattr(mp, "_fold", spy)
    result = _run("pgBat", workers=1, warmup_fraction=0.9,
                  target_accesses=4_000,
                  workload_kwargs={"n_tables": 2, "pages_per_table": 20})
    worker, = seen
    assert worker["total_transactions"] >= 200
    assert 0 < len(worker["samples"]) <= worker["transactions"]
    assert result.p95_response_ms > 0


def test_window_reports_its_own_longest_hold():
    """The windowed record used to carry the *lifetime* max hold: a
    warm-up transient leaked into a warm-up-excluded record."""
    from repro.runtime import mp

    stats = dict.fromkeys(
        ("accesses", "hits", "misses", "transactions", "requests",
         "contentions", "acquisitions", "try_attempts", "try_failures"), 0)
    stats.update(total_wait_us=0.0, total_hold_us=0.0,
                 window_max_hold_us=0.0)
    # Warm-up: 10 accesses, one of them behind a 900 us hold.
    stats.update(accesses=10, hits=10, requests=10, acquisitions=10,
                 total_hold_us=950.0, window_max_hold_us=900.0)
    snapshot = mp._begin_window(stats)
    # Window: 5 more accesses, no hold longer than 40 us.
    stats.update(accesses=15, hits=15, requests=15, acquisitions=15,
                 total_hold_us=1_050.0,
                 window_max_hold_us=max(stats["window_max_hold_us"], 40.0))
    access, lock = mp._window(stats, snapshot)
    assert (access.accesses, access.hits, access.misses) == (5, 5, 0)
    assert lock.requests == 5
    assert lock.total_hold_us == pytest.approx(100.0)
    assert lock.max_hold_us == lock.window_max_hold_us == 40.0
    # The lifetime maximum (the metrics gauge) survives in the snapshot.
    assert snapshot["window_max_hold_us"] == 900.0


def test_prefetching_system_reports_its_prefetch_passes():
    """mp pgBatPre ran the pre-commit touch loop and reported 0."""
    batched = _run("pgBat")
    prefetching = _run("pgBatPre")
    assert batched.prefetches_issued == 0
    # One pass per threshold-triggered commit, none for the final flush.
    assert 0 < prefetching.prefetches_issued <= (
        prefetching.lock_stats.acquisitions)
    assert prefetching.prefetches_valid == 0  # no mp analogue


def test_single_worker_runs():
    result = _run("pgBatPre", workers=1)
    assert result.accesses >= 8_000
    assert result.lock_stats.contentions == 0  # nobody to contend with
    assert result.cpu_utilization > 0


def test_record_round_trip_preserves_runtime():
    result = _run("pgBat", target_accesses=2_000)
    record = result.to_dict()
    assert record["runtime"] == "mp"
    rebuilt = RunResult.from_dict(record)
    assert rebuilt.to_dict() == record


@pytest.mark.parametrize("overrides, match", [
    (dict(use_disk=True), "in-memory scaling engine"),
    (dict(use_disk=True, background_writer=True),
     "in-memory scaling engine"),
    (dict(system="pgPre"), "no mp hot path"),
    (dict(system="pgLock"), "no mp hot path"),
    (dict(simulate_bucket_locks=True), "simulator ablation"),
    (dict(policy_name="lirs"), "policy_name cannot be swapped"),
    (dict(n_processors=0), ">= 1 worker"),
])
def test_unsupported_configs_are_rejected(overrides, match):
    params = dict(system="pgBat", workload="tablescan", runtime="mp",
                  n_processors=2, target_accesses=1_000)
    params.update(overrides)
    with pytest.raises(ConfigError, match=match):
        run_experiment(ExperimentConfig(**params))


def test_observer_and_checker_are_rejected():
    config = ExperimentConfig(system="pgBat", runtime="mp",
                              n_processors=1, target_accesses=1_000)
    with pytest.raises(ConfigError, match="observability layer"):
        run_experiment(config, observer=object())
    with pytest.raises(ConfigError, match="correctness checker"):
        run_experiment(config, checker=object())


def test_trace_bearing_observer_is_rejected():
    from repro.obs import MetricsRegistry, Observer, TraceRecorder

    config = ExperimentConfig(system="pgBat", runtime="mp",
                              n_processors=1, target_accesses=1_000)
    observer = Observer(trace=TraceRecorder(), metrics=MetricsRegistry())
    with pytest.raises(ConfigError, match="metrics-only"):
        run_experiment(config, observer=observer)


def test_metrics_only_observer_merges_worker_snapshots():
    """Cross-process aggregation: the merged per-worker registries
    must account for every access of the run — the histogram counts
    sum to the global access count, worker by worker."""
    from repro.obs import MetricsRegistry, Observer

    observer = Observer(metrics=MetricsRegistry())
    config = ExperimentConfig(
        system="pgBat", workload="tablescan", runtime="mp",
        n_processors=2, target_accesses=4_000, warmup_fraction=0.0,
        seed=23, max_sim_time_us=120_000_000.0)
    result = run_experiment(config, observer=observer)
    snapshot = result.metrics
    assert snapshot is not None
    assert snapshot["counters"]["mp.workers"] == 2
    assert snapshot["counters"]["mp.transactions"] == result.transactions
    access_hist = snapshot["histograms"]["mp.access_us"]
    assert access_hist["count"] == result.accesses
    assert sum(access_hist["buckets"].values()) == result.accesses
    # The replacement lock under the sim/native Observer's names: one
    # wait per contention, one hold per acquisition.
    lock, stats = "lock.replacement-pgBat", result.lock_stats
    assert snapshot["counters"][f"{lock}.contentions"] == stats.contentions
    assert snapshot["histograms"][f"{lock}.wait_us"]["count"] == (
        stats.contentions)
    assert snapshot["histograms"][f"{lock}.hold_us"]["count"] == (
        stats.acquisitions)
    assert snapshot["gauges"][f"{lock}.max_hold_us"]["value"] == (
        pytest.approx(stats.max_hold_us))
    assert not [name for kind in snapshot.values() for name in kind
                if name.startswith("mp.lock.")]
    # The live registry holds the same merged state as the record.
    assert observer.metrics.snapshot() == snapshot


def test_scaling_record_and_page_shape(tmp_path):
    """bench_scaling's record drives the dashboard page deterministically."""
    import json
    import subprocess
    import sys
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(repo / "benchmarks" / "bench_scaling.py"),
         "--workers", "1", "--systems", "pgBat", "--accesses", "2000",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    record = json.loads((out / "BENCH_scaling.json").read_text())
    assert record["cells"][0]["system"] == "pgBat"
    assert record["cells"][0]["events_per_sec"] > 0
    html = (out / "scaling.html").read_text()
    assert "Access rate scaling" in html and "<svg" in html

    from repro.harness.dashboard import render_html, scaling_report
    assert (render_html(scaling_report(record))
            == render_html(scaling_report(record)))
