"""Telemetry primitives: trace contexts, windowed series, SLOs, export.

The contracts pinned here:

* :class:`TraceContext` ids are pure functions of their inputs — no
  counters, no randomness — so same-seed runs mint identical ids and
  traces stay byte-identical;
* the sampler document and the OpenMetrics export are byte-stable and
  name-sorted, whatever order instruments were created in;
* SLO burn rates follow ``burn = bad_fraction / budget`` exactly;
* :func:`merge_snapshots` over per-worker snapshots equals recording
  the combined observation stream into one registry.
"""

import json

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.export import (merge_snapshots, sanitize_metric_name,
                              to_openmetrics, write_openmetrics)
from repro.obs.telemetry import (SLOSpec, TelemetrySampler, TimeSeries,
                                 TraceContext, WindowedHistogram,
                                 evaluate_slo)


class TestTraceContext:
    def test_derivation_is_deterministic(self):
        a = TraceContext.derive(42, "tenant03", 1, 17)
        b = TraceContext.derive(42, "tenant03", 1, 17)
        assert a == b
        assert a.request_id == f"{a.trace_id}:000017"

    def test_distinct_inputs_distinct_ids(self):
        base = TraceContext.derive(42, "tenant03", 1, 0)
        assert TraceContext.derive(43, "tenant03", 1, 0) != base
        assert TraceContext.derive(42, "tenant04", 1, 0) != base
        assert (TraceContext.derive(42, "tenant03", 2, 0).trace_id
                != base.trace_id)
        # Same session stream, later request: same trace, new request.
        later = TraceContext.derive(42, "tenant03", 1, 9)
        assert later.trace_id == base.trace_id
        assert later.request_id != base.request_id

    def test_as_args_carries_the_linkage_keys(self):
        ctx = TraceContext.derive(7, "t", 0, 3)
        args = ctx.as_args()
        assert args == {"trace": ctx.trace_id, "req": ctx.request_id,
                        "tenant": "t"}


class TestTimeSeries:
    def test_samples_round_and_accumulate(self):
        series = TimeSeries("queue", unit="req")
        series.sample(1000.123456, 3.00000049)
        series.sample(2000.0, 4.5)
        assert series.points == [[1000.123, 3.0], [2000.0, 4.5]]
        assert series.last() == 4.5
        assert series.values() == [3.0, 4.5]


class TestWindowedHistogram:
    def test_observations_land_in_time_windows(self):
        windowed = WindowedHistogram(1000.0)
        windowed.record(10.0, 5.0)
        windowed.record(999.0, 7.0)
        windowed.record(1001.0, 11.0)
        doc = windowed.to_dict()
        assert [w["start_us"] for w in doc["windows"]] == [0.0, 1000.0]
        assert [w["count"] for w in doc["windows"]] == [2, 1]
        assert windowed.total_count == 3

    def test_merged_folds_every_window(self):
        windowed = WindowedHistogram(100.0)
        for t in range(10):
            windowed.record(t * 100.0, float(t + 1))
        merged = windowed.merged()
        assert merged.count == 10
        assert merged.max_value == 10.0

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            WindowedHistogram(0.0)


class TestTelemetrySampler:
    def test_document_is_sorted_and_stable(self):
        def build(order):
            sampler = TelemetrySampler(500.0)
            for name in order:
                sampler.series(name, unit="x").sample(0.0, 1.0)
            sampler.latency("tenant01").record(10.0, 42.0)
            sampler.latency("tenant00").record(10.0, 7.0)
            sampler.samples_taken = 1
            return json.dumps(sampler.to_dict(), sort_keys=True)

        assert build(["b", "a"]) == build(["a", "b"])
        doc = json.loads(build(["z", "m"]))
        assert list(doc["series"]) == ["m", "z"]
        assert list(doc["latency_windows"]) == ["tenant00", "tenant01"]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TelemetrySampler(0.0)


class TestSLO:
    def test_spec_validation(self):
        SLOSpec().validate()
        with pytest.raises(ValueError):
            SLOSpec(p99_ms=0.0).validate()
        with pytest.raises(ValueError):
            SLOSpec(error_budget=1.0).validate()
        with pytest.raises(ValueError):
            SLOSpec(throttle_rate=0.0).validate()

    def test_burn_rates_are_bad_fraction_over_budget(self):
        spec = SLOSpec(p99_ms=1.0, error_budget=0.10, throttle_rate=0.25)
        # 2 of 10 requests over 1 ms -> slow fraction 0.2 -> burn 2.0.
        latencies = [500.0] * 8 + [1500.0, 2500.0]
        record = evaluate_slo(spec, "t", latencies, admitted=10,
                              throttled=5)
        assert record["slow_fraction"] == pytest.approx(0.2)
        assert record["latency_burn_rate"] == pytest.approx(2.0)
        assert not record["latency_ok"]
        # 5 of 10 admitted throttled -> 0.5 / 0.25 -> burn 2.0.
        assert record["throttle_burn_rate"] == pytest.approx(2.0)
        assert not record["throttle_ok"]
        assert not record["ok"]

    def test_compliant_tenant_is_ok(self):
        record = evaluate_slo(SLOSpec(), "t", [100.0] * 100,
                              admitted=100, throttled=0)
        assert record["ok"]
        assert record["latency_burn_rate"] == 0.0
        assert record["achieved_p99_ms"] == pytest.approx(0.1)

    def test_empty_tenant_is_vacuously_ok(self):
        record = evaluate_slo(SLOSpec(), "idle", [], admitted=0,
                              throttled=0)
        assert record["ok"]
        assert record["completed"] == 0
        assert record["achieved_p99_ms"] == 0.0


class TestOpenMetrics:
    def test_name_sanitization(self):
        assert sanitize_metric_name("serve.shard0.hits") == \
            "serve_shard0_hits"
        assert sanitize_metric_name("lock:replacement") == \
            "lock:replacement"
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_export_shape_and_determinism(self, tmp_path):
        def build():
            registry = MetricsRegistry()
            registry.counter("b.count").inc(3)
            registry.counter("a.count").inc(1)
            registry.gauge("depth").set(4.0)
            hist = registry.histogram("lat.us")
            for value in [1.0, 3.0, 3.0, 200.0]:
                hist.record(value)
            return to_openmetrics(registry.snapshot())

        text = build()
        assert text == build()
        assert text.endswith("# EOF\n")
        lines = text.splitlines()
        assert "repro_a_count_total 1" in lines
        assert "repro_b_count_total 3" in lines
        # Counters sorted: a before b.
        assert (lines.index("repro_a_count_total 1")
                < lines.index("repro_b_count_total 3"))
        assert "repro_lat_us_count 4" in lines
        assert 'repro_lat_us_bucket{le="+Inf"} 4' in lines
        # Buckets are cumulative: the last finite bucket == count.
        finite = [line for line in lines
                  if line.startswith("repro_lat_us_bucket")
                  and "+Inf" not in line]
        assert finite and finite[-1].endswith(" 4")
        path = write_openmetrics(tmp_path / "m.prom",
                                 MetricsRegistry().snapshot())
        assert path.read_text().endswith("# EOF\n")

    def test_gauge_exports_peak_twin(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue")
        gauge.set(9.0)
        gauge.set(2.0)
        text = to_openmetrics(registry.snapshot())
        assert "repro_queue 2" in text
        assert "repro_queue_max 9" in text


class TestMergeSnapshots:
    def _worker_snapshot(self, counter, values, depth):
        registry = MetricsRegistry()
        registry.counter("work.done").inc(counter)
        registry.gauge("queue.depth").set(depth)
        hist = registry.histogram("lat.us")
        for value in values:
            hist.record(value)
        return registry.snapshot()

    def test_merge_equals_combined_recording(self):
        a = self._worker_snapshot(3, [1.0, 5.0], 2.0)
        b = self._worker_snapshot(4, [9.0, 130.0, 2.0], 6.0)
        merged = merge_snapshots([a, b])
        combined = MetricsRegistry()
        combined.counter("work.done").inc(7)
        combined.gauge("queue.depth").set(2.0)
        combined.gauge("queue.depth").set(6.0)
        hist = combined.histogram("lat.us")
        for value in [1.0, 5.0, 9.0, 130.0, 2.0]:
            hist.record(value)
        expected = combined.snapshot()
        assert merged["counters"] == expected["counters"]
        assert merged["histograms"] == expected["histograms"]
        assert merged["gauges"]["queue.depth"]["value"] == 6.0
        assert merged["gauges"]["queue.depth"]["max"] == 6.0

    def test_merge_is_order_independent(self):
        a = self._worker_snapshot(3, [1.0, 5.0], 2.0)
        b = self._worker_snapshot(4, [9.0], 6.0)
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    def test_registry_round_trip(self):
        snapshot = self._worker_snapshot(5, [4.0, 8.0], 3.0)
        registry = MetricsRegistry()
        registry.merge_snapshot(snapshot)
        assert registry.snapshot() == snapshot

    def test_histogram_merge_preserves_total_count(self):
        parts = [Histogram() for _ in range(3)]
        for index, hist in enumerate(parts):
            for value in range(1, 10 * (index + 1)):
                hist.record(float(value))
        merged = Histogram()
        for hist in parts:
            merged.merge(Histogram.from_dict(hist.to_dict()))
        assert merged.count == sum(h.count for h in parts)
