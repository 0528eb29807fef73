"""Tests for the experiment harness: systems, runner, report, sweeps."""

from __future__ import annotations

import pytest

from repro.core.bpwrapper import (BatchedHandler, DirectHandler,
                                  LockFreeHitHandler)
from repro.errors import ConfigError
from repro.harness.distributed import DistributedHandler
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.report import format_number, render_table, rows_to_csv
from repro.harness.systems import SYSTEM_NAMES, build_system, system_spec
from repro.harness.sweeps import (bench_scale, default_target_accesses,
                                  default_workload_kwargs, processor_sweep)
from repro.simcore.engine import Simulator


@pytest.fixture
def fast_config(tiny_machine):
    return ExperimentConfig(
        system="pg2Q", workload="dbt1", workload_kwargs={"scale": 0.05},
        machine=tiny_machine, n_processors=4, target_accesses=4000,
        warmup_fraction=0.1, seed=7)


class TestSystemSpecs:
    def test_table1_contents(self):
        expectations = {
            "pgclock": ("clock", "None"),
            "pg2Q": ("2q", "None"),
            "pgBat": ("2q", "Batching"),
            "pgPre": ("2q", "Prefetching"),
            "pgBatPre": ("2q", "Batching and Prefetching"),
        }
        for name in SYSTEM_NAMES:
            spec = system_spec(name)
            assert (spec.policy_name, spec.enhancement) == expectations[name]

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            system_spec("pgNope")

    def test_case_insensitive(self):
        assert system_spec("PGBATPRE").name == "pgBatPre"

    def test_policy_swap(self):
        assert system_spec("pgBat", policy_name="lirs").policy_name == "lirs"
        # pgclock keeps its clock unless explicitly overridden.
        assert system_spec("pgclock").policy_name == "clock"


class TestBuildSystem:
    def test_handler_selection(self, tiny_machine):
        sim = Simulator()
        cases = {
            "pgclock": LockFreeHitHandler,
            "pg2Q": DirectHandler,
            "pgBat": BatchedHandler,
            "pgPre": DirectHandler,
            "pgBatPre": BatchedHandler,
        }
        for name, handler_cls in cases.items():
            build = build_system(name, sim, 64, tiny_machine)
            assert isinstance(build.handler, handler_cls), name
            assert build.manager.capacity == 64

    def test_prefetch_flags(self, tiny_machine):
        sim = Simulator()
        assert not build_system("pgBat", sim, 64,
                                tiny_machine).spec.prefetch
        assert build_system("pgBatPre", sim, 64,
                            tiny_machine).spec.prefetch

    def test_distributed_system(self, tiny_machine):
        sim = Simulator()
        build = build_system("pgDist", sim, 64, tiny_machine)
        assert isinstance(build.handler, DistributedHandler)
        assert len(build.handler.locks) >= 2
        stats = build.handler.lock_stats()
        assert stats.requests == 0

    def test_lock_free_policy_under_batching_still_batches(self,
                                                           tiny_machine):
        # BP-Wrapper is policy independent: wrapping clock is allowed.
        sim = Simulator()
        build = build_system("pgBat", sim, 64, tiny_machine,
                             policy_name="clock")
        assert isinstance(build.handler, BatchedHandler)


class TestRunExperiment:
    def test_basic_run_properties(self, fast_config):
        result = run_experiment(fast_config)
        assert result.accesses > 0
        assert result.transactions > 0
        assert result.throughput_tps > 0
        assert result.hit_ratio == pytest.approx(1.0)  # prewarmed
        assert result.misses == 0
        assert result.elapsed_us > 0
        assert 0.0 < result.cpu_utilization <= 1.0

    def test_deterministic(self, fast_config):
        a = run_experiment(fast_config)
        b = run_experiment(fast_config)
        assert a.throughput_tps == b.throughput_tps
        assert a.lock_stats.contentions == b.lock_stats.contentions
        assert a.elapsed_us == b.elapsed_us

    def test_seed_changes_results(self, fast_config):
        a = run_experiment(fast_config)
        b = run_experiment(fast_config.with_params(seed=8))
        assert a.elapsed_us != b.elapsed_us

    def test_target_accesses_respected(self, fast_config):
        result = run_experiment(fast_config)
        assert result.total_accesses >= fast_config.target_accesses
        # Threads stop at transaction boundaries: bounded overshoot.
        assert result.total_accesses < fast_config.target_accesses * 2

    def test_too_many_processors_rejected(self, fast_config):
        with pytest.raises(ConfigError):
            run_experiment(fast_config.with_params(n_processors=64))

    def test_bad_warmup_fraction_rejected(self, fast_config):
        with pytest.raises(ConfigError):
            run_experiment(fast_config.with_params(warmup_fraction=1.5))

    def test_explicit_thread_count(self, fast_config):
        result = run_experiment(fast_config.with_params(n_threads=6))
        assert result.config.resolved_threads() == 6

    def test_zero_threads_rejected(self, fast_config):
        with pytest.raises(ConfigError):
            fast_config.with_params(n_threads=0).resolved_threads()

    def test_miss_run_with_disk(self, fast_config):
        config = fast_config.with_params(buffer_pages=200, use_disk=True)
        result = run_experiment(config)
        assert result.misses > 0
        assert result.disk_reads > 0
        assert result.hit_ratio < 1.0


class TestReport:
    def test_format_number(self):
        assert format_number(None) == "-"
        assert format_number("x") == "x"
        assert format_number(0) == "0"
        assert format_number(12345.6) == "12,346"
        assert format_number(12.34) == "12.3"
        assert format_number(0.1234) == "0.123"
        assert format_number(1e-5) == "1.00e-05"

    def test_render_table_alignment(self):
        table = render_table(["a", "bbb"], [[1, 2], [333, 4]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "333" in table
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows equal width

    def test_rows_to_csv(self):
        csv_text = rows_to_csv(["a", "b"], [[1, None], ["x,y", 2]])
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"
        assert lines[2] == '"x,y",2'


class TestSweeps:
    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert bench_scale() == 0.5
        assert default_target_accesses(40000) == 20000
        monkeypatch.setenv("REPRO_BENCH_SCALE", "junk")
        with pytest.raises(ConfigError):
            bench_scale()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ConfigError):
            bench_scale()

    def test_default_workload_kwargs_shapes(self):
        assert "scale" in default_workload_kwargs("dbt1")
        assert "n_warehouses" in default_workload_kwargs("dbt2")
        assert "n_tables" in default_workload_kwargs("tablescan")

    def test_processor_sweep_runs(self, tiny_machine):
        results = processor_sweep(
            "pgclock", "dbt1", machine=tiny_machine,
            processors=(1, 2), target_accesses=3000, seed=5)
        assert [r.config.n_processors for r in results] == [1, 2]
        # More processors -> more throughput for the scalable system.
        assert results[1].throughput_tps > results[0].throughput_tps


class TestResultExport:
    def test_to_dict_roundtrips_through_json(self, fast_config):
        import json
        result = run_experiment(fast_config)
        record = result.to_dict()
        parsed = json.loads(json.dumps(record))
        assert parsed["system"] == "pg2Q"
        assert parsed["workload"] == "dbt1"
        assert parsed["throughput_tps"] == pytest.approx(
            result.throughput_tps)
        assert parsed["lock"]["contentions"] == \
            result.lock_stats.contentions

    def test_save_and_load_results(self, fast_config, tmp_path):
        from repro.harness.report import (load_results_json,
                                          save_results_json)
        result = run_experiment(fast_config)
        path = tmp_path / "results.json"
        assert save_results_json(path, [result]) == 1
        records = load_results_json(path)
        assert len(records) == 1
        assert records[0]["accesses"] == result.accesses


class TestThinkTime:
    def test_think_time_spends_off_cpu(self, tiny_machine):
        from repro.db.relations import Relation, Schema
        from repro.db.transactions import Transaction
        from repro.harness.experiment import ExperimentConfig, run_experiment
        from repro.workloads.base import Workload

        class ThinkWorkload(Workload):
            name = "think"

            def __init__(self, think_us, seed=0):
                super().__init__(seed)
                self.think_us = think_us
                self._relation = Relation("t", 16)
                self._schema = Schema([self._relation])

            @property
            def schema(self):
                return self._schema

            def transaction_stream(self, thread_index):
                while True:
                    yield Transaction("think",
                                      list(self._relation.pages()),
                                      think_time_us=self.think_us)

        def throughput(think_us):
            workload = ThinkWorkload(think_us)
            config = ExperimentConfig(
                system="pgclock", workload="think",
                machine=tiny_machine, n_processors=2, n_threads=2,
                target_accesses=2000, warmup_fraction=0.0)
            return run_experiment(config, workload=workload).throughput_tps

        # Think time idles the client between transactions: with as
        # many threads as CPUs, throughput must drop.
        assert throughput(5_000.0) < throughput(0.0) * 0.5
