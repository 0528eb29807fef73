"""Shared invariants every replacement policy must satisfy.

These tests are parametrized over the entire registry, so adding a new
policy automatically subjects it to the full contract: capacity is
never exceeded, hits require residency, victims are real and
evictable, removal works, and stand-alone accounting is consistent.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PolicyError
from repro.policies import available_policies, make_policy
from repro.policies.base import LockDiscipline

ALL_POLICIES = available_policies()
CLOCK_FAMILY = {"clock", "gclock", "car", "clockpro", "fifo"}


def zipfish_key(rng: random.Random, space: int = 2000) -> tuple:
    if rng.random() < 0.8:
        return ("t", rng.randint(0, 60))
    return ("t", rng.randint(0, space))


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestPolicyContract:
    def test_capacity_never_exceeded(self, name):
        policy = make_policy(name, 32)
        rng = random.Random(7)
        for _ in range(5000):
            policy.access(zipfish_key(rng))
            assert policy.resident_count <= 32

    def test_resident_keys_unique_and_match_count(self, name):
        policy = make_policy(name, 16)
        rng = random.Random(8)
        for _ in range(2000):
            policy.access(zipfish_key(rng, 100))
        keys = list(policy.resident_keys())
        assert len(keys) == len(set(keys)) == policy.resident_count

    def test_contains_agrees_with_resident_keys(self, name):
        policy = make_policy(name, 16)
        rng = random.Random(9)
        for _ in range(1000):
            policy.access(zipfish_key(rng, 100))
        for key in policy.resident_keys():
            assert key in policy

    def test_access_after_eviction_is_miss(self, name):
        policy = make_policy(name, 4)
        evicted = None
        for block in range(50):
            result = policy.access(("t", block))
            if result.evicted is not None:
                evicted = result.evicted
        assert evicted is not None
        assert evicted not in policy

    def test_hit_on_nonresident_raises(self, name):
        policy = make_policy(name, 4)
        with pytest.raises(PolicyError):
            policy.on_hit(("t", 999))

    def test_miss_on_resident_raises(self, name):
        policy = make_policy(name, 4)
        policy.on_miss(("t", 1))
        with pytest.raises(PolicyError):
            policy.on_miss(("t", 1))

    def test_remove_frees_space(self, name):
        policy = make_policy(name, 4)
        for block in range(4):
            policy.on_miss(("t", block))
        policy.on_remove(("t", 2))
        assert ("t", 2) not in policy
        assert policy.resident_count == 3
        # A further miss should admit without eviction.
        evicted = policy.on_miss(("t", 99))
        assert evicted is None

    def test_remove_nonresident_raises(self, name):
        policy = make_policy(name, 4)
        with pytest.raises(PolicyError):
            policy.on_remove(("t", 1))

    def test_victims_were_resident(self, name):
        policy = make_policy(name, 8)
        rng = random.Random(10)
        resident = set()
        for _ in range(3000):
            key = zipfish_key(rng, 500)
            if key in policy:
                policy.on_hit(key)
                assert key in resident
            else:
                victim = policy.on_miss(key)
                if victim is not None:
                    assert victim in resident
                    resident.discard(victim)
                resident.add(key)
            assert resident == set(policy.resident_keys())

    def test_full_pool_evicts_exactly_one(self, name):
        policy = make_policy(name, 8)
        for block in range(8):
            policy.on_miss(("t", block))
        for block in range(100, 150):
            victim = policy.on_miss(("t", block))
            assert victim is not None
            assert policy.resident_count == 8

    def test_capacity_one(self, name):
        policy = make_policy(name, 1)
        rng = random.Random(11)
        for _ in range(200):
            policy.access(zipfish_key(rng, 20))
            assert policy.resident_count <= 1

    def test_invalid_capacity_rejected(self, name):
        with pytest.raises(PolicyError):
            make_policy(name, 0)

    def test_warm_with(self, name):
        policy = make_policy(name, 10)
        policy.warm_with([("t", b) for b in range(10)])
        assert policy.resident_count == 10
        result = policy.access(("t", 5))
        assert result.hit

    def test_stats_accounting(self, name):
        policy = make_policy(name, 8)
        rng = random.Random(12)
        for _ in range(500):
            policy.access(zipfish_key(rng, 60))
        stats = policy.stats
        assert stats.hits + stats.misses == 500
        assert stats.accesses == 500
        assert 0.0 <= stats.hit_ratio <= 1.0
        # Misses beyond capacity must have produced evictions.
        assert stats.evictions >= stats.misses - 8 - stats.evictions * 0


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestPinningContract:
    def test_pinned_pages_never_evicted(self, name):
        pinned = {("t", 0), ("t", 1)}
        policy = make_policy(name, 8)
        policy.set_evictable_predicate(lambda key: key not in pinned)
        for block in range(8):
            policy.on_miss(("t", block))
        for block in range(100, 200):
            victim = policy.on_miss(("t", block))
            assert victim not in pinned
        assert ("t", 0) in policy
        assert ("t", 1) in policy

    def test_all_pinned_raises(self, name):
        policy = make_policy(name, 4)
        policy.set_evictable_predicate(lambda key: False)
        for block in range(4):
            policy.on_miss(("t", block))
        with pytest.raises(PolicyError):
            policy.on_miss(("t", 99))


@pytest.mark.parametrize("name", sorted(CLOCK_FAMILY & set(ALL_POLICIES)))
def test_clock_family_hits_are_lock_free(name):
    policy = make_policy(name, 8)
    assert policy.lock_discipline is LockDiscipline.LOCK_FREE_HIT


@pytest.mark.parametrize("name", sorted(set(ALL_POLICIES) - CLOCK_FAMILY))
def test_list_based_policies_need_lock_on_hits(name):
    policy = make_policy(name, 8)
    assert policy.lock_discipline is LockDiscipline.LOCKED_HIT


class TestPolicyHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40),
                    min_size=1, max_size=400),
           st.sampled_from(ALL_POLICIES),
           st.integers(min_value=1, max_value=12))
    def test_random_traces_respect_contract(self, trace, name, capacity):
        policy = make_policy(name, capacity)
        resident = set()
        for block in trace:
            key = ("s", block)
            hit = key in policy
            assert hit == (key in resident)
            result = policy.access(key)
            assert result.hit == hit
            if result.evicted is not None:
                resident.discard(result.evicted)
            if not hit:
                resident.add(key)
            assert policy.resident_count == len(resident)
            assert policy.resident_count <= capacity

    @pytest.mark.parametrize("name", ALL_POLICIES)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.lists(st.integers(min_value=0, max_value=40), max_size=200),
           st.lists(st.integers(min_value=0, max_value=10 ** 6),
                    max_size=64),
           st.one_of(st.none(), st.integers(min_value=0, max_value=64)))
    def test_on_hits_equals_on_hit_loop(self, name, capacity, warm, picks,
                                        bad_at):
        """``on_hits(keys)`` leaves exactly the state of ``for k in keys:
        on_hit(k)`` — the same resident order and later victims — and
        raises the same ``PolicyError`` at a non-resident key."""
        batched, looped = (make_policy(name, capacity) for _ in range(2))
        # Twice through: the second pass re-references evicted pages,
        # which fills the ghost-promoted lists (2Q's Am, ARC's T2...).
        for block in warm * 2:
            batched.access(("s", block))
            looped.access(("s", block))
        resident = sorted(looped.resident_keys())
        keys = [resident[pick % len(resident)] for pick in picks] \
            if resident else []
        if bad_at is not None:
            keys.insert(min(bad_at, len(keys)), ("absent", bad_at))
        errors = []
        try:
            batched.on_hits(keys)
        except PolicyError as exc:
            errors.append(str(exc))
        try:
            for key in keys:
                looped.on_hit(key)
        except PolicyError as exc:
            errors.append(str(exc))
        assert len(errors) == (0 if bad_at is None else 2)
        assert len(set(errors)) <= 1
        # Same order of resident keys (the lists' order, for list-based
        # policies), and the same victims from here on.
        assert list(batched.resident_keys()) == list(looped.resident_keys())
        victims = [[policy.on_miss(("fresh", block))
                    for block in range(2 * capacity + 2)]
                   for policy in (batched, looped)]
        assert victims[0] == victims[1]
