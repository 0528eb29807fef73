"""Tests for the contention analyzer and HTML dashboard.

Two layers, matching the pipeline:

* synthetic-input unit tests for each analyzer function (known spans
  in, hand-computed diagnostics out);
* an observed 2x2 sweep through ``analyze_grid`` + ``analysis_report``
  with the determinism acceptance check (same seed -> byte-identical
  dashboard and analysis JSON).
"""

import json
import types

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.dashboard import analysis_report, render_html
from repro.harness.sweeps import observed_grid
from repro.obs.analyze import (analyze_grid, analyze_run,
                               batch_hold_correlation, breakdown_table,
                               lock_breakdown, merge_snapshot_histograms,
                               scaling_table, thread_attribution,
                               warmup_cost, warmup_table)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder

# -- synthetic-input analyzer units ---------------------------------------


def _snapshot_with_locks():
    registry = MetricsRegistry()
    for _ in range(4):
        registry.histogram("lock.alpha.hold_us").record(10.0)
    for _ in range(2):
        registry.histogram("lock.alpha.wait_us").record(100.0)
    registry.counter("lock.alpha.contentions").inc(2)
    registry.histogram("lock.beta.hold_us").record(1.0)
    registry.histogram("unrelated.hold_us")  # must not match lock.*
    return registry.snapshot()


def test_lock_breakdown_fields_and_order():
    locks = lock_breakdown(_snapshot_with_locks())
    assert [entry["lock"] for entry in locks] == ["alpha", "beta"]
    alpha = locks[0]
    assert alpha["acquisitions"] == 4
    assert alpha["hold_total_us"] == pytest.approx(40.0)
    assert alpha["waits"] == 2
    assert alpha["wait_total_us"] == pytest.approx(200.0)
    # amplification = wait total / hold total: the convoy signature.
    assert alpha["amplification"] == pytest.approx(5.0)
    assert alpha["contentions"] == 2
    beta = locks[1]
    assert beta["waits"] == 0
    assert beta["amplification"] == 0.0


def test_lock_breakdown_empty_snapshot():
    assert lock_breakdown(MetricsRegistry().snapshot()) == []


def test_warmup_cost_splits_at_boundary():
    trace = TraceRecorder()
    trace.span("hold:gate", "lock", "t1", 0.0, 10.0)    # warm
    trace.span("hold:gate", "lock", "t1", 20.0, 30.0)   # warm
    trace.span("hold:gate", "lock", "t1", 100.0, 102.0)  # steady
    trace.span("wait:gate", "lock", "t2", 5.0, 25.0)    # warm
    trace.span("io:page", "disk", "t1", 0.0, 50.0)      # not a lock span
    cost = warmup_cost(trace, warmup_end_us=50.0)
    hold = cost["hold"]
    assert (hold["warm_count"], hold["steady_count"]) == (2, 1)
    assert hold["warm_mean_us"] == pytest.approx(10.0)
    assert hold["steady_mean_us"] == pytest.approx(2.0)
    # 20us of warm holds that would have cost 2*2us at steady rate.
    assert hold["excess_us"] == pytest.approx(16.0)
    assert cost["wait"]["warm_count"] == 1
    assert cost["wait"]["steady_count"] == 0


def test_batch_hold_correlation_perfectly_linear():
    trace = TraceRecorder()
    for size in (2, 4, 8):
        trace.span("batch-commit", "bpwrapper", "t1", 0.0,
                   float(size), args={"batch": size})
    stats = batch_hold_correlation(trace)
    assert stats["commits"] == 3
    assert stats["mean_batch"] == pytest.approx(14 / 3, abs=1e-3)
    assert stats["us_per_entry"] == pytest.approx(1.0)
    assert stats["pearson_r"] == pytest.approx(1.0)


def test_batch_hold_correlation_no_commits():
    stats = batch_hold_correlation(TraceRecorder())
    assert stats == {"commits": 0, "mean_batch": 0.0,
                     "mean_commit_us": 0.0, "us_per_entry": 0.0,
                     "pearson_r": None}


def test_thread_attribution_shares():
    trace = TraceRecorder()
    trace.span("blocked", "sched", "t1", 0.0, 30.0)
    trace.span("blocked", "sched", "t2", 0.0, 10.0)
    trace.span("wait:gate", "lock", "t1", 0.0, 15.0)
    trace.span("hold:gate", "lock", "t2", 10.0, 14.0)
    rows = thread_attribution(trace)
    assert [row["thread"] for row in rows] == ["t1", "t2"]
    t1, t2 = rows
    assert t1["blocked_share"] == pytest.approx(0.75)
    assert t1["wait_fraction"] == pytest.approx(0.5)
    assert t1["waits"] == 1
    assert t2["lock_hold_us"] == pytest.approx(4.0)
    assert sum(row["blocked_share"] for row in rows) == pytest.approx(1.0)


def test_merge_snapshot_histograms_counts_add():
    registries = [MetricsRegistry(), MetricsRegistry()]
    for value in (1.0, 2.0, 4.0):
        registries[0].histogram("lock.a.hold_us").record(value)
    for value in (8.0, 16.0):
        registries[1].histogram("lock.b.hold_us").record(value)
    registries[1].histogram("lock.b.wait_us").record(99.0)  # other suffix
    merged = merge_snapshot_histograms(
        [registry.snapshot() for registry in registries], "hold_us")
    assert merged.count == 5
    assert merged.total == pytest.approx(31.0)
    assert merged.max_value == pytest.approx(16.0)


def test_analyze_run_requires_observed_result():
    with pytest.raises(ValueError, match="observed"):
        analyze_run(types.SimpleNamespace(metrics=None))


# -- observed sweep through the full pipeline -----------------------------


GRID_SYSTEMS = ["pg2Q", "pgBatPre"]
GRID_PROCESSORS = [2, 4]


@pytest.fixture(scope="module")
def grid_analysis():
    results, recorders = observed_grid(
        GRID_SYSTEMS, "tablescan", GRID_PROCESSORS,
        target_accesses=800, seed=11)
    return analyze_grid(results, recorders)


def test_grid_shape_and_scaling(grid_analysis):
    assert grid_analysis["systems"] == GRID_SYSTEMS
    assert grid_analysis["processors"] == GRID_PROCESSORS
    assert len(grid_analysis["runs"]) == 4
    cells = {(row["system"], row["processors"])
             for row in grid_analysis["scaling"]}
    assert cells == {(s, p) for s in GRID_SYSTEMS for p in GRID_PROCESSORS}
    for row in grid_analysis["scaling"]:
        assert row["throughput_tps"] > 0
        assert row["hold_p99_us"] >= row["hold_p50_us"]
        assert row["wait_p99_us"] >= row["wait_p50_us"]


def test_grid_heatmap_matches_scaling(grid_analysis):
    heatmap = grid_analysis["heatmap"]
    assert heatmap["rows"] == GRID_SYSTEMS
    assert heatmap["cols"] == GRID_PROCESSORS
    for i, system in enumerate(GRID_SYSTEMS):
        for j, procs in enumerate(GRID_PROCESSORS):
            expected = next(
                row["contention_per_million"]
                for row in grid_analysis["scaling"]
                if row["system"] == system and row["processors"] == procs)
            assert heatmap["values"][i][j] == expected


def test_grid_merged_distributions(grid_analysis):
    for system in GRID_SYSTEMS:
        merged = grid_analysis["merged"][system]["hold_us"]
        per_run = sum(
            lock["acquisitions"]
            for run in grid_analysis["runs"] if run["system"] == system
            for lock in run["locks"])
        assert merged["count"] == per_run
        assert "p999_us" in merged and "p90_us" in merged


def test_grid_batching_systems_batch(grid_analysis):
    by_system = {run["system"]: run for run in grid_analysis["runs"]}
    assert by_system["pgBatPre"]["mean_batch_size"] > 1.0
    r = grid_analysis["batch_sweep"]["pearson_r"]
    assert r is None or -1.0 <= r <= 1.0


def test_grid_json_clean_and_tables(grid_analysis):
    document = json.dumps(grid_analysis, sort_keys=True)
    assert "NaN" not in document and "Infinity" not in document
    headers, rows = scaling_table(grid_analysis["scaling"])
    assert len(rows) == 4 and len(rows[0]) == len(headers)
    run = grid_analysis["runs"][0]
    headers, rows = breakdown_table(run["locks"])
    assert rows and len(rows[0]) == len(headers)
    headers, rows = warmup_table(run["warmup"])
    assert [row[0] for row in rows] == ["hold", "wait"]


def test_dashboard_contents(grid_analysis):
    html = render_html(analysis_report(grid_analysis))
    assert html.startswith("<!DOCTYPE html>")
    assert "<svg" in html and "</html>" in html
    for system in GRID_SYSTEMS:
        assert system in html
    assert "NaN" not in html
    # Self-contained: no external fetches of any kind.
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html


def test_dashboard_deterministic_across_fresh_sweeps(tmp_path):
    documents = []
    for _ in range(2):
        results, recorders = observed_grid(
            ["pgBatPre"], "tablescan", [2], target_accesses=600, seed=3)
        analysis = analyze_grid(results, recorders)
        documents.append((render_html(analysis_report(analysis)),
                          json.dumps(analysis, sort_keys=True)))
    assert documents[0] == documents[1]


def test_cli_analyze_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "dash"
    code = cli_main(["analyze", "--systems", "pgBatPre",
                     "--processors", "2", "--accesses", "600",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    html = (out / "dashboard.html").read_text()
    assert "<svg" in html
    analysis = json.loads((out / "analysis.json").read_text())
    assert analysis["systems"] == ["pgBatPre"]
    assert "Sweep grid" in capsys.readouterr().out

