"""Tests for cost models, machine specs, and the CPU-cache model."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError, SimulationError
from repro.hardware.costs import CostModel
from repro.hardware.cpucache import MetadataCacheModel
from repro.hardware.machines import ALTIX_350, POWEREDGE_2900
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.sweeps import default_workload_kwargs
from repro.harness.systems import SYSTEM_NAMES
from repro.workloads.tablescan import TableScanWorkload


class TestCostModel:
    def test_frozen(self):
        costs = CostModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.user_work_us = 1.0  # type: ignore[misc]

    def test_scaled_overrides(self):
        costs = CostModel().scaled(user_work_us=99.0)
        assert costs.user_work_us == 99.0
        assert costs.disk_read_us == CostModel().disk_read_us

    def test_all_costs_non_negative(self):
        costs = CostModel()
        for field in dataclasses.fields(costs):
            value = getattr(costs, field.name)
            if isinstance(value, (int, float)):
                assert value >= 0, field.name

    @pytest.mark.parametrize("field", [
        field.name for field in dataclasses.fields(CostModel)])
    def test_a_negative_constant_is_rejected_by_name(self, field):
        with pytest.raises(ConfigError, match=f"CostModel.{field} "):
            CostModel(**{field: -0.1})

    def test_scaled_is_checked_too(self):
        with pytest.raises(ConfigError, match="queue_record_us"):
            CostModel().scaled(queue_record_us=-1)

    def test_a_machine_with_a_negative_cost_is_rejected(self):
        with pytest.raises(ConfigError, match="hash_lookup_us"):
            ALTIX_350.with_costs(hash_lookup_us=-0.1)

    @pytest.mark.parametrize("runtime", ["sim", "native"])
    def test_negative_transaction_work_is_rejected(self, monkeypatch,
                                                   runtime):
        """Per-access work is added unchecked; its transaction checks it."""
        monkeypatch.setattr(TableScanWorkload, "SCAN_WORK_FACTOR", -1.0)
        with pytest.raises(SimulationError, match="negative charge"):
            run_experiment(ExperimentConfig(
                system="pgBatPre", workload="tablescan",
                workload_kwargs={"n_tables": 2, "pages_per_table": 20},
                n_processors=1, n_threads=1, target_accesses=100,
                seed=1, runtime=runtime))

    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_disk_needs_a_server(self, concurrency):
        with pytest.raises(ConfigError, match="disk_concurrency"):
            CostModel(disk_concurrency=concurrency)


class TestMachines:
    def test_paper_platforms(self):
        assert ALTIX_350.max_processors == 16
        assert POWEREDGE_2900.max_processors == 8
        assert not ALTIX_350.has_hw_prefetcher
        assert POWEREDGE_2900.has_hw_prefetcher

    def test_processor_steps_within_bounds(self):
        for machine in (ALTIX_350, POWEREDGE_2900):
            assert max(machine.processor_steps) == machine.max_processors
            assert machine.processor_steps[0] == 1

    def test_poweredge_faster_user_work(self):
        # The hardware prefetcher accelerates sequential user work.
        assert (POWEREDGE_2900.costs.user_work_us
                < ALTIX_350.costs.user_work_us)

    def test_poweredge_smaller_warmup(self):
        # Out-of-order execution hides part of the stalls.
        assert (POWEREDGE_2900.costs.warmup_fixed_us
                < ALTIX_350.costs.warmup_fixed_us)

    def test_with_costs_override(self):
        custom = ALTIX_350.with_costs(user_work_us=1.0)
        assert custom.costs.user_work_us == 1.0
        assert ALTIX_350.costs.user_work_us != 1.0
        assert custom.name == ALTIX_350.name


class TestMetadataCache:
    def make(self, **kwargs) -> MetadataCacheModel:
        return MetadataCacheModel(CostModel(), **kwargs)

    def test_cold_warmup_cost(self):
        cache = self.make()
        costs = CostModel()
        expected = costs.warmup_fixed_us + 4 * costs.warmup_per_page_us
        assert cache.warmup_cost(1, 4) == pytest.approx(expected)

    def test_valid_prefetch_reduces_to_residual(self):
        cache = self.make()
        costs = CostModel()
        cache.prefetch(1, 4)
        assert cache.warmup_cost(1, 4) == pytest.approx(
            4 * costs.warm_residual_us)
        assert cache.prefetches_valid_at_use == 1

    def test_commit_invalidates_other_threads(self):
        cache = self.make(invalidation_per_commit=1.0)
        costs = CostModel()
        cache.prefetch(1, 4)
        cache.note_commit(2)  # another thread commits
        cold = costs.warmup_fixed_us + 4 * costs.warmup_per_page_us
        assert cache.warmup_cost(1, 4) == pytest.approx(cold)
        assert cache.prefetches_invalidated == 1

    def test_partial_invalidation(self):
        cache = self.make(invalidation_per_commit=0.25)
        costs = CostModel()
        cache.prefetch(1, 4)
        cache.note_commit(2)
        cold = costs.warmup_fixed_us + 4 * costs.warmup_per_page_us
        warm = 4 * costs.warm_residual_us
        expected = warm + 0.25 * (cold - warm)
        assert cache.warmup_cost(1, 4) == pytest.approx(expected)

    def test_own_commit_warmth_is_not_a_prefetch(self):
        """A commit keeps the committer's lines warm, and the next
        commit's warm-up is cheap, but no prefetch was issued: the
        diagnostics count neither a valid nor an invalidated one."""
        cache = self.make()
        cache.note_commit(1)
        assert cache.warmup_cost(1, 4) == pytest.approx(
            4 * CostModel().warm_residual_us)
        cache.prefetch(2, 4)
        cache.note_commit(2)  # its own commit re-arms the prefetch
        cache.warmup_cost(2, 4)
        assert (cache.prefetches_issued, cache.prefetches_valid_at_use,
                cache.prefetches_invalidated) == (1, 0, 0)

    def test_committers_own_lines_stay_warm(self):
        cache = self.make()
        cache.prefetch(1, 1)
        cache.note_commit(1)  # own commit refreshes the version
        assert cache.is_warm(1)

    def test_prefetch_cost_scales_with_pages(self):
        cache = self.make()
        costs = CostModel()
        assert cache.prefetch(1, 8) == pytest.approx(
            8 * costs.prefetch_issue_us)

    def test_prefetch_consumed_at_use(self):
        cache = self.make()
        cache.prefetch(1, 1)
        cache.warmup_cost(1, 1)
        # Second use without re-prefetching pays the cold cost.
        costs = CostModel()
        cold = costs.warmup_fixed_us + costs.warmup_per_page_us
        assert cache.warmup_cost(1, 1) == pytest.approx(cold)

    def test_hw_prefetcher_flag_bypasses_model(self):
        cache = MetadataCacheModel(
            CostModel(),
            hardware_prefetcher_helps_critical_section=True)
        costs = CostModel()
        assert cache.warmup_cost(1, 4) == pytest.approx(
            4 * costs.warm_residual_us)

    def test_negative_invalidation_fraction_rejected(self):
        # It could make a stale prefetch's warm-up cost negative.
        with pytest.raises(ConfigError, match="invalidation_per_commit"):
            self.make(invalidation_per_commit=-0.1)


@pytest.mark.parametrize("runtime", ["sim", "native"])
@pytest.mark.parametrize("system", SYSTEM_NAMES)
def test_valid_prefetches_never_exceed_issued(system, runtime):
    """Every Table I system, on both thread runtimes: a valid prefetch
    is one a thread issued, so there are never more of them."""
    result = run_experiment(ExperimentConfig(
        system=system, workload="tablescan",
        workload_kwargs=default_workload_kwargs("tablescan"),
        n_processors=2, target_accesses=4000, seed=42, runtime=runtime))
    assert result.prefetches_valid <= result.prefetches_issued
