"""Serving-layer telemetry: traces, sampled series, SLOs, CLI exports.

The end-to-end contracts of the telemetry pipeline:

* a disk-backed serve run's trace links admission, shard, lock-wait
  and disk spans under one deterministic request id;
* the windowed sampler opt-in (``telemetry_interval_us``) produces a
  byte-stable document and changes nothing else about the run;
* the published ``serve.shard*`` / ``serve.tenant.*`` / ``serve.slo.*``
  metric families reconcile exactly with :meth:`ServeResult.to_dict`;
* ``cli serve --telemetry`` writes byte-deterministic OpenMetrics and
  time-series artifacts plus the telemetry dashboard.
"""

from __future__ import annotations

import collections
import json

import pytest

from repro.harness.dashboard import render_html, telemetry_report
from repro.obs import MetricsRegistry, Observer, TraceRecorder
from repro.serve import ServeConfig, run_serve


def tiny_config(**overrides) -> ServeConfig:
    base = dict(n_shards=2, n_tenants=3, sessions_per_tenant=2,
                pages_per_tenant=48, hot_pages=8, target_requests=300,
                n_processors=4, seed=13)
    base.update(overrides)
    return ServeConfig(**base)


# -- request-scoped trace propagation --------------------------------------


def test_request_trace_links_admission_to_disk():
    """One request id must connect the whole causal chain: the request
    span, the replacement-lock wait, the page miss, and the disk read
    it triggered — the acceptance criterion of the tracing layer."""
    observer = Observer(trace=TraceRecorder(), metrics=MetricsRegistry())
    config = tiny_config(use_disk=True, shard_buffer_pages=24,
                         target_requests=200)
    run_serve(config, observer=observer)
    names_by_request = collections.defaultdict(set)
    for ph, name, cat, tid, ts, dur, args in observer.trace.records():
        request_id = (args or {}).get("req")
        if request_id:
            names_by_request[request_id].add(name)
    assert names_by_request, "no trace records carried a request id"
    linked = [
        request_id for request_id, names in names_by_request.items()
        if "request" in names
        and any(name.startswith("wait:") for name in names)
        and "disk-read" in names
    ]
    assert linked, (
        f"no request linked request+lock-wait+disk spans; saw "
        f"{sorted(set().union(*names_by_request.values()))}")


def test_trace_ids_are_deterministic_across_runs():
    def collect():
        observer = Observer(trace=TraceRecorder(),
                            metrics=MetricsRegistry())
        run_serve(tiny_config(target_requests=120), observer=observer)
        return sorted({(args or {}).get("req")
                       for *_, args in observer.trace.records()
                       if (args or {}).get("req")})

    first = collect()
    assert first == collect()


def test_unobserved_run_is_unchanged_by_the_tracing_layer():
    """No observer, no telemetry: the run's record must be identical
    to the pre-telemetry contract (byte-stable same-seed JSON)."""
    config = tiny_config()
    a = json.dumps(run_serve(config).to_dict(), sort_keys=True)
    b = json.dumps(run_serve(config).to_dict(), sort_keys=True)
    assert a == b


# -- windowed telemetry ----------------------------------------------------


def test_sampler_collects_series_and_latency_windows():
    config = tiny_config(telemetry_interval_us=2_000.0)
    result = run_serve(config)
    telemetry = result.telemetry
    assert telemetry is not None
    assert telemetry["samples"] >= 1
    series = telemetry["series"]
    for shard_id in range(config.n_shards):
        assert f"shard{shard_id}.queue_depth" in series
        assert f"shard{shard_id}.contention_rate" in series
        assert f"shard{shard_id}.hit_ratio" in series
    assert "served.requests" in series
    # Every tenant that completed requests has latency windows, and
    # the windowed counts sum to its completed-request count.
    tenants = {t["tenant"]: t for t in result.tenant_records}
    for name, windowed in telemetry["latency_windows"].items():
        count = sum(w["count"] for w in windowed["windows"])
        assert count == tenants[name]["completed"]


def test_sampler_document_is_deterministic():
    config = tiny_config(telemetry_interval_us=2_000.0)
    a = json.dumps(run_serve(config).telemetry, sort_keys=True)
    b = json.dumps(run_serve(config).telemetry, sort_keys=True)
    assert a == b


def test_sampling_preserves_accounting_invariants():
    """The sampler is one more scheduled thread, so it may shift the
    interleaving (deterministically — see the determinism test above);
    what it must never do is break conservation: every admitted
    request completes, shard accesses sum to the total, and the run
    still hits its target."""
    result = run_serve(tiny_config(telemetry_interval_us=2_000.0))
    record = result.to_dict()
    assert record["requests"] >= result.config.target_requests
    assert sum(s["accesses"] for s in record["shards"]) == \
        record["accesses"]
    assert sum(t["completed"] for t in record["tenants"]) == \
        record["requests"]


def test_native_runtime_samples_wall_clock_telemetry():
    config = tiny_config(runtime="native", target_requests=150,
                         n_processors=2,
                         telemetry_interval_us=1_000.0)
    result = run_serve(config)
    assert result.telemetry is not None
    assert result.telemetry["samples"] >= 1


# -- SLO records -----------------------------------------------------------


def test_slo_records_cover_every_tenant():
    result = run_serve(tiny_config())
    assert len(result.slo_records) == result.config.n_tenants
    names = [record["tenant"] for record in result.slo_records]
    assert names == sorted(names)
    assert result.slo_ok == all(r["ok"] for r in result.slo_records)
    assert result.to_dict()["slo"] == result.slo_records
    assert result.to_dict()["slo_ok"] == result.slo_ok


def test_tight_slo_is_honestly_violated():
    result = run_serve(tiny_config(slo_p99_ms=0.0001))
    assert not result.slo_ok
    assert result.worst_latency_burn > 1.0
    assert "VIOLATED" in result.summary()


# -- metric families reconcile with the result record ----------------------


def test_published_metrics_match_result_records():
    observer = Observer(metrics=MetricsRegistry())
    result = run_serve(tiny_config(), observer=observer)
    snapshot = result.metrics
    record = result.to_dict()
    for shard in record["shards"]:
        prefix = f'serve.shard{shard["shard"]}'
        assert snapshot["counters"][f"{prefix}.accesses"] == \
            shard["accesses"]
        assert snapshot["counters"][f"{prefix}.hits"] == shard["hits"]
        assert snapshot["counters"][f"{prefix}.lock_contentions"] == \
            shard["lock_contentions"]
        assert snapshot["counters"][f"{prefix}.backpressure_events"] \
            == shard["backpressure_events"]
        assert snapshot["gauges"][f"{prefix}.peak_in_flight"]["value"] \
            == shard["peak_in_flight"]
        assert snapshot["gauges"][f"{prefix}.contention_rate"]["value"] \
            == pytest.approx(shard["contention_rate"])
    for tenant in record["tenants"]:
        prefix = f'serve.tenant.{tenant["tenant"]}'
        assert snapshot["counters"][f"{prefix}.admitted"] == \
            tenant["admitted"]
        assert snapshot["counters"][f"{prefix}.throttled"] == \
            tenant["throttled"]
        assert snapshot["counters"][f"{prefix}.backpressured"] == \
            tenant["backpressured"]
        latency = snapshot["histograms"][f"{prefix}.latency_us"]
        assert latency["count"] == tenant["completed"]
    for slo in record["slo"]:
        prefix = f'serve.slo.{slo["tenant"]}'
        assert snapshot["gauges"][f"{prefix}.ok"]["value"] == \
            (1.0 if slo["ok"] else 0.0)
        assert snapshot["gauges"][f"{prefix}.latency_burn_rate"]["value"] \
            == pytest.approx(slo["latency_burn_rate"])


def test_tenant_shard_routing_matrix_conserves_requests():
    result = run_serve(tiny_config())
    for tenant in result.tenant_records:
        routed = sum(tenant["shard_requests"].values())
        assert routed == tenant["admitted"]
        for shard_key in tenant["shard_requests"]:
            assert 0 <= int(shard_key) < result.config.n_shards


# -- config gates ----------------------------------------------------------


def test_bad_telemetry_and_slo_configs_are_rejected():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        ServeConfig(telemetry_interval_us=-1.0).validate()
    with pytest.raises(ConfigError, match="bad SLO spec"):
        ServeConfig(slo_p99_ms=0.0).validate()
    with pytest.raises(ConfigError, match="use_disk"):
        ServeConfig(use_disk=True, runtime="native").validate()


# -- dashboard and CLI artifacts -------------------------------------------


def test_render_telemetry_page_is_deterministic():
    from repro.serve import serve_grid

    results = []
    record = serve_grid(
        tiny_config(telemetry_interval_us=2_000.0), [2], [3], [0.8],
        observer_factory=lambda: Observer(metrics=MetricsRegistry()),
        progress=results.append)
    timeseries = {"2s-3t-skew0.8": results[0].telemetry}
    page = render_html(telemetry_report(record, timeseries))
    assert page == render_html(telemetry_report(record, timeseries))
    assert "sparkline" in page
    assert "SLO" in page
    assert "requests routed" in page  # the tenant x shard heatmap


def test_cli_serve_writes_telemetry_artifacts(tmp_path):
    from repro.harness.cli import serve_main

    out = tmp_path / "out"
    prom = tmp_path / "telemetry.prom"
    argv = ["--shards", "2", "--tenants", "3", "--skews", "0.8",
            "--requests", "150", "--sessions", "2", "--pages", "48",
            "--seed", "13", "--telemetry", str(prom),
            "--trace", "--out", str(out)]
    assert serve_main(argv) == 0
    text = prom.read_text()
    assert text.endswith("# EOF\n")
    assert "repro_serve_shard0_accesses_total" in text
    timeseries = json.loads((out / "timeseries.json").read_text())
    assert timeseries["2s-3t-skew0.8"]["samples"] >= 1
    assert (out / "telemetry_dashboard.html").exists()
    trace = json.loads((out / "trace.json").read_text())
    assert any((e.get("args") or {}).get("req")
               for e in trace["traceEvents"])

    # Same seed, fresh invocation: byte-identical telemetry exports.
    out2 = tmp_path / "out2"
    prom2 = tmp_path / "telemetry2.prom"
    argv2 = list(argv)
    argv2[argv2.index(str(prom))] = str(prom2)
    argv2[argv2.index(str(out))] = str(out2)
    assert serve_main(argv2) == 0
    assert prom2.read_bytes() == prom.read_bytes()
    assert ((out2 / "timeseries.json").read_bytes()
            == (out / "timeseries.json").read_bytes())


def test_cli_serve_telemetry_conflicts_with_no_metrics(capsys):
    from repro.harness.cli import serve_main

    assert serve_main(["--telemetry", "x.prom", "--no-metrics"]) == 2
    assert "--no-metrics" in capsys.readouterr().err
