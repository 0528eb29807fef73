# Developer conveniences. Everything also works as plain commands —
# see README.md.

.PHONY: install test lint check oracle native-smoke bench-scaling \
	trace analyze dashboard serve serve-smoke telemetry macro tune \
	tune-smoke ledger bench repro quick charts csv clean

install:
	pip install -e .

test:
	pytest tests/

# Ruff, configured in pyproject.toml ([tool.ruff]); the CI lint job
# runs exactly this.
lint:
	ruff check src tests benchmarks examples

# Correctness gate: checked multi-threaded runs (lock-protocol monitor
# + policy invariants), the differential oracle (batched vs direct must
# produce identical hit/miss/eviction streams) and a deterministic
# schedule fuzzer over queue-geometry corners. Non-zero exit on any
# violation. The second line runs the checked run on the shared-queue
# system, whose commits the monitor and the sweep see like any other.
# See docs/correctness.md.
check:
	PYTHONPATH=src python -m repro.harness.cli check --fuzz 25
	PYTHONPATH=src python -m repro.harness.cli check \
		--systems pgBatShared pgBat --fuzz 0

# Byte-identical sim output, as the one exact sim gate: runs the perf
# ledger's four simulator workloads (fig6_hit, table3_miss, serve_sim,
# macro_sim) at seed 42 plus two tablescan cells in-process, and fails
# unless all 14 result digests equal those in benchmarks/oracle.json.
# A refactor of the harness, the runtimes or anything below them must
# keep this green; a deliberate model change re-records with
# `python benchmarks/oracle.py --update` and pastes its old -> new
# lines into CHANGES.md. ~20 s. The CI smoke job runs exactly this.
oracle:
	python benchmarks/oracle.py --out out/oracle

# Native-runtime smoke: a multi-threaded wall-clock run on real OS
# threads under a hard timeout (deadlock guard), plus the layering
# guard (algorithm layers must import with the simulator blocked), the
# sim-vs-native single-thread equivalence tests and the hit-cost guard
# (Python calls per native hit). CI runs exactly this as the
# native-smoke job.
native-smoke:
	timeout 120 env PYTHONPATH=src python -m repro.harness.cli run \
		--runtime native --system pgBat --workload tablescan \
		--processors 4 --accesses 20000
	timeout 120 env PYTHONPATH=src python -m repro.harness.cli run \
		--runtime native --system pgclock --workload tablescan \
		--processors 4 --accesses 20000
	PYTHONPATH=src python -m pytest -q \
		tests/test_layering.py tests/test_runtime_equivalence.py \
		tests/test_pin_conservation.py tests/test_hit_cost.py

# Wall-clock scaling sweep (Fig. 6/7 shapes) on the truly parallel
# backend for this build: mp worker processes over shared memory, or
# native threads on free-threaded CPython. Writes
# out/BENCH_scaling.json + out/scaling.html. On a multi-core host,
# fails if batching loses to lock-per-hit at the top worker count.
# CI runs a 2-worker version as the scaling-smoke job.
bench-scaling:
	timeout 600 env PYTHONPATH=src python benchmarks/bench_scaling.py \
		--workers 1,2,4 --systems pg2Q pgBat pgBatPre \
		--out out --assert-divergence

# One observed run: writes out/trace.json (open in Perfetto or
# chrome://tracing), out/trace_metrics.json and a flame summary of the
# top lock-holding span kinds. See docs/observability.md.
trace:
	PYTHONPATH=src python -m repro.harness.cli trace --out out

# Observed 2x2 sweep -> contention analysis + self-contained HTML
# dashboard (out/dashboard.html, out/analysis.json). Deterministic for
# a given seed. `dashboard` is an alias.
analyze:
	PYTHONPATH=src python -m repro.harness.cli analyze --out out

dashboard: analyze

# Sharded multi-tenant serving sweep: 4 buffer-pool shards x 8 tenants
# under skewed load with token-bucket admission. Writes out/serve.json
# (byte-identical across same-seed sim runs) and a per-shard contention
# heatmap (out/serve_dashboard.html). See docs/architecture.md §11.
serve:
	PYTHONPATH=src python -m repro.harness.cli serve --out out

# The CI serve-smoke grid: tiny sweep run twice, records compared
# byte-for-byte (cmp), proving the serving layer is deterministic.
serve-smoke:
	PYTHONPATH=src python -m repro.harness.cli serve \
		--shards 2 --tenants 3 --skews 0.2 0.8 \
		--requests 600 --quota 4000 --out out/serve-a
	PYTHONPATH=src python -m repro.harness.cli serve \
		--shards 2 --tenants 3 --skews 0.2 0.8 \
		--requests 600 --quota 4000 --out out/serve-b
	cmp out/serve-a/serve.json out/serve-b/serve.json
	cmp out/serve-a/serve_dashboard.html out/serve-b/serve_dashboard.html

# The telemetry pipeline end to end: serve grid with request-scoped
# tracing and windowed sampling on, exporting the merged registry as
# OpenMetrics text (out/telemetry.prom), the sampled series
# (out/timeseries.json), the first cell's request-linked trace
# (out/trace.json) and the ops dashboard
# (out/telemetry_dashboard.html). All byte-deterministic per seed; CI
# runs a twice-and-cmp version as the telemetry-smoke job. See
# docs/observability.md ("Telemetry pipeline").
telemetry:
	PYTHONPATH=src python -m repro.harness.cli serve \
		--shards 2 --tenants 3 --skews 0.2 0.8 \
		--requests 600 --quota 4000 --trace \
		--telemetry out/telemetry.prom --out out

# Query-execution macro tier: tpcc_lite plans (heap scans, B-tree
# walks, joins, inserts/updates) executed live against the buffer
# pool, operators holding page pins across their lifetimes. Sweeps
# pg2Q vs pgBat, pooled and 2-shard; writes out/macro.json
# (byte-identical across same-seed sim runs) and a per-operator
# dashboard (out/macro_dashboard.html). CI runs a twice-and-cmp
# version as the macro-smoke job. See docs/architecture.md §12.
macro:
	PYTHONPATH=src python -m repro.harness.cli macro \
		--systems pg2Q pgBat --shards 0 2 --out out

# Control-plane tuning sweep: the Fig. 8 (threshold x queue x
# prefetch) study as a tool, plus the online threshold adapter's
# convergence probe and the adaptive policy's hit-ratio face-off.
# Writes out/tune.json (byte-identical across same-seed sim runs) and
# a heatmap dashboard (out/tune_dashboard.html). CI runs the
# twice-and-cmp version below as the tune-smoke job. See
# docs/architecture.md §13.
tune:
	PYTHONPATH=src python -m repro.harness.cli tune --out out

# The CI tune-smoke grid: tiny sweep run twice, records compared
# byte-for-byte (cmp), proving the control plane is deterministic.
tune-smoke:
	PYTHONPATH=src python -m repro.harness.cli tune \
		--thresholds 1 8 32 --queues 64 --prefetch off \
		--accesses 1500 --processors 8 --out out/tune-a
	PYTHONPATH=src python -m repro.harness.cli tune \
		--thresholds 1 8 32 --queues 64 --prefetch off \
		--accesses 1500 --processors 8 --out out/tune-b
	cmp out/tune-a/tune.json out/tune-b/tune.json
	cmp out/tune-a/tune_dashboard.html out/tune-b/tune_dashboard.html

# "Did wall-clock perf regress?": run the perf ledger's six workloads
# (benchmarks/ledger/, see its README) and compare the host-speed-
# normalised results with the committed reference record.
ledger:
	python benchmarks/ledger/run.py --out out/ledger
	python benchmarks/ledger/compare.py \
		benchmarks/ledger/reference.json out/ledger/results.json

bench:
	pytest benchmarks/ --benchmark-only

# Regenerate every paper artifact as plain tables (fast to read, slow
# to run: ~3-5 minutes at full scale).
repro:
	python -m repro.harness.cli all

# Quarter-scale everything for quick iterations.
quick:
	REPRO_BENCH_SCALE=0.25 pytest benchmarks/ --benchmark-only

charts:
	python -m repro.harness.cli fig2 fig6 fig8 --charts

csv:
	python -m repro.harness.cli all --csv out/

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks out
	find . -name __pycache__ -type d -exec rm -rf {} +
