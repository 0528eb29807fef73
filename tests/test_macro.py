"""Macro tier: tpcc_lite over the execution layer, end to end.

The macro runner is a determinism gate (same config, same seed →
byte-identical records), a lifecycle exerciser (non-zero write-backs
and pinned-victim skips are acceptance criteria for the execution
layer's pin spans), and a reconciliation harness (every disk write is
either a victim write-back or a background-writer clean — nothing
else may touch the disk's write counter).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.db.exec import TraceExecContext, drain_plan
from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350
from repro.harness.macro import MacroConfig, macro_grid, run_macro
from repro.workloads.registry import make_workload

#: Small but under real buffer pressure: the tpcc_lite working set at
#: these knobs (~900 pages) is far above 160 frames, so eviction,
#: write-back and pinned-victim skipping all happen within 60 queries.
SMALL = MacroConfig(system="pgBat", target_queries=60, n_threads=6,
                    n_processors=4, buffer_pages=160, seed=11)

#: Native runs really sleep through disk service; shrink it so the
#: smoke test stays test-sized (model shape unchanged).
FAST_DISK_MACHINE = dataclasses.replace(
    ALTIX_350, costs=dataclasses.replace(ALTIX_350.costs,
                                         disk_read_us=60.0))


class TestDeterminism:
    def test_same_seed_same_record(self):
        first = run_macro(SMALL).to_dict()
        second = run_macro(SMALL).to_dict()
        assert first == second
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_seed_changes_record(self):
        first = run_macro(SMALL)
        second = run_macro(SMALL.with_params(seed=12))
        assert first.to_dict() != second.to_dict()

    def test_sharded_run_deterministic(self):
        config = SMALL.with_params(n_shards=2)
        first = run_macro(config).to_dict()
        second = run_macro(config).to_dict()
        assert first == second
        assert first["n_shards"] == 2


class TestLifecycleCounters:
    def test_write_backs_and_pin_skips_nonzero(self):
        result = run_macro(SMALL)
        assert result.queries >= SMALL.target_queries
        assert result.write_backs > 0
        assert result.pinned_victim_skips > 0
        assert 0.0 < result.hit_ratio < 1.0
        assert result.rows > 0
        assert result.op_breakdown  # per-operator dashboard rows exist
        assert result.queries_by_kind  # the mix actually ran

    def test_disk_writes_reconcile_without_bgwriter(self):
        result = run_macro(SMALL)
        assert result.bgwriter_cleaned == 0
        # Every disk write is a victim write-back; every disk read is
        # an install miss (absorbed misses and hits never touch disk).
        assert result.disk_writes == result.write_backs
        assert result.disk_reads == result.misses

    def test_disk_writes_reconcile_with_bgwriter(self):
        result = run_macro(SMALL.with_params(background_writer=True))
        assert result.bgwriter_cleaned > 0
        assert result.disk_writes == \
            result.write_backs + result.bgwriter_cleaned
        assert result.disk_reads == result.misses

    def test_no_disk_run_has_no_writebacks(self):
        result = run_macro(SMALL.with_params(use_disk=False))
        assert result.disk_reads == 0 and result.disk_writes == 0
        assert result.write_backs == 0
        assert result.queries >= SMALL.target_queries


class TestRuntimes:
    def test_native_smoke(self):
        config = SMALL.with_params(runtime="native", target_queries=24,
                                   n_threads=4, machine=FAST_DISK_MACHINE)
        result = run_macro(config)
        assert result.queries >= config.target_queries
        assert result.accesses > 0
        assert result.to_dict()["runtime"] == "native"

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ConfigError):
            run_macro(SMALL.with_params(runtime="gpu"))

    def test_shards_are_sim_only(self):
        with pytest.raises(ConfigError):
            run_macro(SMALL.with_params(runtime="native", n_shards=2))

    def test_plan_less_workload_rejected(self):
        with pytest.raises(ConfigError, match="plan_stream"):
            run_macro(SMALL.with_params(workload="dbt2",
                                        workload_kwargs={"n_warehouses": 2}))


class TestMacroGrid:
    def test_grid_is_the_record_cli_macro_writes(self, tmp_path, capsys):
        from repro.harness.cli import macro_main
        assert macro_main(["--systems", "pg2Q", "pgBat", "--shards", "0",
                           "2", "--queries", "30", "--threads", "4",
                           "--buffer", "160", "--seed", "11",
                           "--out", str(tmp_path)]) == 0
        assert "Macro grid" in capsys.readouterr().out
        written = json.loads((tmp_path / "macro.json").read_text())
        base = MacroConfig(workload_kwargs={"n_warehouses": 4},
                           target_queries=30, n_threads=4,
                           buffer_pages=160, seed=11)
        record = macro_grid(base, ["pg2Q", "pgBat"], [0, 2])
        assert record == written
        assert sorted(record) == ["buffer_pages", "cells", "runtime",
                                  "seed", "shards", "systems",
                                  "target_queries", "workload"]
        assert [(cell["system"], cell["n_shards"])
                for cell in record["cells"]] == [
            ("pg2Q", 0), ("pg2Q", 2), ("pgBat", 0), ("pgBat", 2)]

    def test_progress_per_cell_and_one_workload(self, monkeypatch):
        from repro.harness import macro
        built = []
        real = macro.make_workload
        monkeypatch.setattr(
            macro, "make_workload",
            lambda *args, **kwargs: built.append(args) or real(*args,
                                                               **kwargs))
        seen = []
        record = macro_grid(SMALL.with_params(target_queries=20),
                            ["pg2Q", "pgBat"], [0, 2], progress=seen.append)
        assert len(built) == 1
        assert [result.to_dict() for result in seen] == record["cells"]


class TestTpccLiteStreams:
    def test_plan_and_transaction_streams_agree(self):
        """Flattening plan_stream reproduces transaction_stream exactly."""
        workload = make_workload("tpcc_lite", seed=7, n_warehouses=2)
        plans = workload.plan_stream(3)
        transactions = workload.transaction_stream(3)
        for _ in range(12):
            query = next(plans)
            transaction = next(transactions)
            ctx = TraceExecContext()
            for root in query.statements:
                drain_plan(root, ctx)
            assert transaction.kind == query.kind
            assert list(transaction.pages) == ctx.pages
            assert transaction.write_indices == frozenset(ctx.write_indices)

    def test_streams_deterministic_per_thread(self):
        workload = make_workload("tpcc_lite", seed=7, n_warehouses=2)
        first = [next(workload.transaction_stream(1)).pages
                 for _ in range(1)]
        again = [next(workload.transaction_stream(1)).pages
                 for _ in range(1)]
        assert first == again
        other_thread = next(workload.transaction_stream(2)).pages
        assert first[0] != other_thread
