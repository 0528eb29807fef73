"""Tests for the hit-ratio replay tools and reference oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.hitratio import (replay, replay_through_wrapper,
                                     sweep_capacity)
from repro.analysis.reference import OracleFIFO, OracleLRU
from repro.bufmgr.tags import PageId
from repro.errors import ConfigError
from repro.policies import make_policy
from repro.workloads.traces import SyntheticTrace


def zipf_trace(n=5000, seed=2):
    return SyntheticTrace(seed=seed).zipf("t", 500, n, theta=0.9).accesses


class TestReplay:
    def test_counts_consistent(self):
        trace = zipf_trace()
        result = replay("lru", trace, capacity=50)
        assert result.accesses == len(trace)
        assert result.hits + result.misses == result.accesses
        assert 0 < result.hit_ratio < 1
        assert result.evictions == result.misses - 50

    def test_policy_instance_accepted(self):
        policy = make_policy("2q", 50)
        result = replay(policy, zipf_trace())
        assert result.policy == "2q"
        assert result.capacity == 50

    def test_name_without_capacity_rejected(self):
        with pytest.raises(ConfigError):
            replay("lru", zipf_trace())

    def test_full_capacity_no_evictions(self):
        trace = [PageId("t", block) for block in range(20)] * 3
        result = replay("lru", trace, capacity=20)
        assert result.evictions == 0
        assert result.hits == 40

    def test_bigger_cache_never_worse_for_lru(self):
        # LRU is a stack algorithm: hit ratio is monotone in capacity.
        trace = zipf_trace()
        results = sweep_capacity("lru", trace, [10, 25, 50, 100, 200])
        ratios = [results[cap].hit_ratio for cap in (10, 25, 50, 100, 200)]
        assert ratios == sorted(ratios)


class TestWrapperReplay:
    def test_batching_does_not_hurt_hit_ratio(self):
        # The paper's §IV-F claim, checked across policies: wrapped and
        # bare hit ratios agree within a small tolerance.
        trace = zipf_trace(8000)
        for name in ("lru", "2q", "lirs", "mq", "arc"):
            bare = replay(name, trace, capacity=60).hit_ratio
            wrapped = replay_through_wrapper(
                name, trace, capacity=60, queue_size=64,
                batch_threshold=32, n_threads=4).hit_ratio
            assert wrapped == pytest.approx(bare, abs=0.02), name

    def test_batch_of_one_is_exact(self):
        trace = zipf_trace(4000)
        bare = replay("lru", trace, capacity=40)
        wrapped = replay_through_wrapper("lru", trace, capacity=40,
                                         queue_size=1, batch_threshold=1,
                                         n_threads=1)
        assert wrapped.hits == bare.hits
        assert wrapped.evictions == bare.evictions

    def test_validation(self):
        with pytest.raises(ConfigError):
            replay_through_wrapper("lru", [], capacity=10,
                                   queue_size=4, batch_threshold=8)
        with pytest.raises(ConfigError):
            replay_through_wrapper("lru", [], capacity=10, n_threads=0)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=10, max_size=300),
           st.integers(min_value=1, max_value=4))
    def test_wrapped_hits_match_bare_residency_decisions(self, blocks,
                                                         n_threads):
        # Whatever the deferral does, hit/miss accounting must stay
        # consistent and capacity respected.
        trace = [PageId("s", block) for block in blocks]
        result = replay_through_wrapper("2q", trace, capacity=8,
                                        queue_size=4, batch_threshold=2,
                                        n_threads=n_threads)
        assert result.hits + result.misses == len(trace)


class TestOracles:
    def test_oracle_lru_behaviour(self):
        oracle = OracleLRU(2)
        assert oracle.access("a") is None
        assert oracle.access("b") is None
        assert oracle.access("a") is None   # hit refreshes
        assert oracle.access("c") == "b"

    def test_oracle_fifo_behaviour(self):
        oracle = OracleFIFO(2)
        oracle.access("a")
        oracle.access("b")
        oracle.access("a")                   # hit, no refresh
        assert oracle.access("c") == "a"


class TestAnalysisSweep:
    def test_sweep_capacity_keys_and_policy_kwargs(self):
        from repro.analysis.hitratio import sweep_capacity
        trace = [PageId("t", block % 30) for block in range(500)]
        results = sweep_capacity("2q", trace, [5, 10],
                                 kin_fraction=0.5)
        assert set(results) == {5, 10}
        assert all(r.policy == "2q" for r in results.values())
