"""Behavioural tests for W-TinyLFU and its count-min sketch."""

from __future__ import annotations

import random

import pytest

from repro.errors import PolicyError
from repro.policies.tinylfu import HALVE, CountMinSketch, TinyLFUPolicy


def key(block: int) -> tuple:
    return ("t", block)


class TestCountMinSketch:
    def test_estimates_track_counts(self):
        sketch = CountMinSketch(64)
        for _ in range(5):
            sketch.increment("hot")
        sketch.increment("cold")
        assert sketch.estimate("hot") >= 5
        assert sketch.estimate("cold") >= 1
        assert sketch.estimate("hot") > sketch.estimate("cold")
        assert sketch.estimate("never") <= sketch.estimate("cold")

    def test_counters_saturate(self):
        sketch = CountMinSketch(8)
        for _ in range(100):
            sketch.increment("x")
        assert sketch.estimate("x") <= CountMinSketch.MAX_COUNT

    def test_aging_halves_counts(self):
        sketch = CountMinSketch(8)
        sketch.sample_period = 10
        for _ in range(9):
            sketch.increment("x")
        before = sketch.estimate("x")
        sketch.increment("x")  # triggers the reset
        assert sketch.estimate("x") <= (before + 1) // 2 + 1

    def test_estimates_pinned_across_a_halving(self):
        """Exact estimates before and after one aging step, as the
        sketch gave them on a numpy table: 15 saturates, a halving
        floors (15 -> 7, 5 -> 2), an unseen key stays 0."""
        sketch = CountMinSketch(8)
        assert (sketch.width, sketch.sample_period) == (64, 80)
        keys = [("t", 1), ("t", 2), ("t", 3), ("u", 4)]
        for _ in range(20):
            sketch.increment(keys[0])
        for _ in range(5):
            sketch.increment(keys[1])
        assert [sketch.estimate(k) for k in keys] == [15, 5, 0, 0]
        for _ in range(54):
            sketch.increment(keys[3])
        assert [sketch.estimate(k) for k in keys] == [15, 5, 0, 15]
        sketch.increment(keys[3])  # the 80th increment halves
        assert [sketch.estimate(k) for k in keys] == [7, 2, 0, 7]
        assert sketch._since_reset == 0

    def test_halve_table_shifts_every_byte(self):
        assert bytearray(range(256)).translate(HALVE) == bytearray(
            value >> 1 for value in range(256))

    def test_estimate_never_negative_or_huge(self):
        sketch = CountMinSketch(32)
        rng = random.Random(1)
        for _ in range(2000):
            sketch.increment(("k", rng.randrange(500)))
        for block in range(500):
            estimate = sketch.estimate(("k", block))
            assert 0 <= estimate <= CountMinSketch.MAX_COUNT

    def test_validation(self):
        with pytest.raises(PolicyError):
            CountMinSketch(0)


class TestTinyLFU:
    def test_new_pages_enter_window(self):
        policy = TinyLFUPolicy(100)
        policy.on_miss(key(0))
        assert policy.segment_of(key(0)) == "window"

    def test_window_overflow_spills_to_probation_when_space(self):
        policy = TinyLFUPolicy(100)  # window = 1
        policy.on_miss(key(0))
        policy.on_miss(key(1))
        assert policy.segment_of(key(0)) == "probation"
        assert policy.segment_of(key(1)) == "window"

    def test_probation_hit_promotes_to_protected(self):
        policy = TinyLFUPolicy(100)
        policy.on_miss(key(0))
        policy.on_miss(key(1))       # 0 -> probation
        policy.on_hit(key(0))
        assert policy.segment_of(key(0)) == "protected"

    def test_admission_filter_rejects_cold_candidates(self):
        # Build a hot main area, then stream one-touch pages: the
        # filter must deny them admission (the TinyLFU design goal).
        policy = TinyLFUPolicy(20)
        hot = [key(block) for block in range(19)]
        for page in hot:
            policy.on_miss(page)
        rng = random.Random(3)
        for _ in range(300):
            policy.on_hit(hot[rng.randrange(19)])
        for block in range(1000, 1100):
            policy.access(key(block))
        assert policy.rejected_admissions > 50
        # The hot main-area pages survived the scan.
        still_resident = sum(1 for page in hot if page in policy)
        assert still_resident >= 15

    def test_admission_filter_admits_proven_hot_returner(self):
        policy = TinyLFUPolicy(10)
        returner = key(999)
        # Make the returner's sketch frequency high via repeated misses
        # and evictions (frequency survives eviction — the whole point
        # of keeping history in a sketch, not in the cache).
        for round_index in range(6):
            policy.access(returner)
            for block in range(20):
                policy.access(key(block))
        policy.access(returner)
        assert returner in policy

    def test_scan_resistance_vs_lru(self):
        from repro.policies.lru import LRUPolicy
        rng = random.Random(9)
        tiny = TinyLFUPolicy(30)
        lru = LRUPolicy(30)
        tiny_hits = lru_hits = 0
        scan_block = 10_000
        for step in range(6000):
            if step % 3 == 0:
                page = ("scan", scan_block)
                scan_block += 1
            else:
                page = key(rng.randrange(20))
            tiny_hits += tiny.access(page).hit
            lru_hits += lru.access(page).hit
        assert tiny_hits > lru_hits

    def test_works_under_bp_wrapper(self):
        from repro.harness.experiment import ExperimentConfig, run_experiment
        config = ExperimentConfig(
            system="pgBatPre", workload="dbt1",
            workload_kwargs={"scale": 0.1}, n_processors=8,
            policy_name="tinylfu", target_accesses=10_000, seed=11)
        result = run_experiment(config)
        assert result.hit_ratio == pytest.approx(1.0)
        assert result.contention_per_million < 10_000

    def test_validation(self):
        with pytest.raises(PolicyError):
            TinyLFUPolicy(10, window_fraction=0.0)


class TestTinyLfuInRegistry:
    def test_make_policy_with_kwargs(self):
        from repro.policies.registry import make_policy
        policy = make_policy("tinylfu", 50, window_fraction=0.1)
        assert policy.window_capacity == 5

    def test_register_policy_and_duplicate_collision(self):
        import pytest

        from repro.errors import ConfigError
        from repro.policies.lru import LRUPolicy
        from repro.policies.registry import (available_policies,
                                             make_policy, register_policy)

        class Custom(LRUPolicy):
            name = "custom-test-policy"

        register_policy("custom-test-policy", Custom)
        assert "custom-test-policy" in available_policies()
        assert isinstance(make_policy("custom-test-policy", 4), Custom)
        # Re-registering the same name is a collision unless the
        # caller explicitly opts into replacement.
        with pytest.raises(ConfigError):
            register_policy("custom-test-policy", Custom)
        register_policy("custom-test-policy", Custom, replace=True)
        assert isinstance(make_policy("custom-test-policy", 4), Custom)
