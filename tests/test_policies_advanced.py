"""Behavioural tests for the advanced algorithms: 2Q, LIRS, MQ, ARC,
CAR, CLOCK-PRO, SEQ.

These verify the algorithm-defining behaviours: ghost-list promotion,
scan resistance, adaptation, frequency protection, and sequence
detection — the properties the paper's hit-ratio arguments rest on.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import PolicyError
from repro.policies import (ARCPolicy, CARPolicy, ClockProPolicy, LIRSPolicy,
                            MQPolicy, SEQPolicy, TwoQPolicy)


def key(block: int) -> tuple:
    return ("t", block)


def scan(policy, start: int, count: int) -> None:
    for block in range(start, start + count):
        policy.access(key(block))


class Test2Q:
    def test_new_pages_enter_a1in(self):
        twoq = TwoQPolicy(8)
        twoq.on_miss(key(0))
        assert key(0) in twoq.a1in_keys
        assert key(0) not in twoq.am_keys

    def test_ghost_hit_promotes_to_am(self):
        twoq = TwoQPolicy(8, kin_fraction=0.25, kout_fraction=0.5)
        # Fill and overflow A1in so page 0 becomes a ghost.
        for block in range(12):
            twoq.on_miss(key(block))
        assert key(0) in twoq.a1out_keys
        twoq.on_miss(key(0))  # ghost hit
        assert key(0) in twoq.am_keys

    def test_a1in_hits_do_not_promote(self):
        # Correlated references inside A1in are deliberately ignored.
        twoq = TwoQPolicy(8)
        twoq.on_miss(key(0))
        twoq.on_hit(key(0))
        twoq.on_hit(key(0))
        assert key(0) in twoq.a1in_keys
        assert key(0) not in twoq.am_keys

    def test_ghost_list_bounded(self):
        twoq = TwoQPolicy(8, kout_fraction=0.5)
        for block in range(200):
            twoq.on_miss(key(block))
        assert len(list(twoq.a1out_keys)) <= twoq.kout

    def test_scan_resistance(self):
        # Pages proven hot (evicted from A1in, then re-referenced via
        # the ghost list into Am) survive a long one-touch scan: the
        # scan lives and dies inside A1in.
        twoq = TwoQPolicy(20)
        hot = [key(block) for block in range(4)]
        for page in hot:
            twoq.access(page)
        scan(twoq, 500, 22)        # push the hot pages out through A1in
        for page in hot:
            result = twoq.access(page)   # ghost hits -> Am
            assert not result.hit
        assert all(page in twoq.am_keys for page in hot)
        scan(twoq, 1000, 100)
        for page in hot:
            assert page in twoq, "scan evicted a hot Am page"

    def test_am_hit_moves_to_mru(self):
        twoq = TwoQPolicy(8)
        for block in range(12):
            twoq.on_miss(key(block))
        twoq.on_miss(key(0))   # ghost -> Am
        twoq.on_miss(key(1))   # ghost -> Am
        twoq.on_hit(key(0))    # 0 becomes MRU of Am
        assert list(twoq.am_keys) == [key(1), key(0)]


class TestLIRS:
    def test_cold_start_fills_lir_first(self):
        lirs = LIRSPolicy(10, hir_fraction=0.2)
        for block in range(8):
            lirs.on_miss(key(block))
        assert lirs.lir_count == lirs.lir_capacity

    def test_hir_page_evicted_before_lir(self):
        lirs = LIRSPolicy(10, hir_fraction=0.2)
        for block in range(10):
            lirs.on_miss(key(block))
        # Pages 0..7 are LIR; 8..9 are HIR residents in Q.
        victim = lirs.on_miss(key(100))
        assert victim in (key(8), key(9))

    def test_ghost_hit_promotes_to_lir(self):
        lirs = LIRSPolicy(10, hir_fraction=0.2)
        for block in range(10):
            lirs.on_miss(key(block))
        victim = lirs.on_miss(key(100))  # evicts a HIR page -> ghost
        assert lirs.state_of(victim) == "NHIR"
        lirs.on_miss(victim)  # re-reference within test period
        assert lirs.state_of(victim) == "LIR"

    def test_loop_beats_lru_shape(self):
        # A loop slightly larger than the cache: LIRS keeps a stable
        # LIR set and scores hits where LRU/CLOCK would thrash to zero.
        capacity = 20
        lirs = LIRSPolicy(capacity, hir_fraction=0.1)
        from repro.policies import LRUPolicy
        lru = LRUPolicy(capacity)
        lirs_hits = lru_hits = 0
        for i in range(2000):
            block = i % (capacity + 5)
            lirs_hits += lirs.access(key(block)).hit
            lru_hits += lru.access(key(block)).hit
        assert lru_hits == 0
        assert lirs_hits > 500

    def test_ghosts_bounded(self):
        lirs = LIRSPolicy(10, max_ghosts=15)
        for block in range(500):
            lirs.on_miss(key(block))
        assert lirs.ghost_count <= 15

    def test_resident_hir_hit_refreshes(self):
        lirs = LIRSPolicy(10, hir_fraction=0.3)
        for block in range(10):
            lirs.on_miss(key(block))
        # 7,8,9 are HIR; hit 7 while still in the stack -> promoted LIR.
        lirs.on_hit(key(7))
        assert lirs.state_of(key(7)) == "LIR"


class TestMQ:
    def test_frequency_promotes_queue_level(self):
        mq = MQPolicy(8, n_queues=4, life_time=1000)
        mq.on_miss(key(0))
        assert mq.queue_of(key(0)) == 0      # freq 1 -> Q0
        mq.on_hit(key(0))
        assert mq.queue_of(key(0)) == 1      # freq 2 -> Q1
        for _ in range(2):
            mq.on_hit(key(0))
        assert mq.queue_of(key(0)) == 2      # freq 4 -> Q2

    def test_eviction_from_lowest_queue(self):
        mq = MQPolicy(4, n_queues=4, life_time=1000)
        for block in range(4):
            mq.on_miss(key(block))
        mq.on_hit(key(0))  # 0 now in Q1, others in Q0
        victim = mq.on_miss(key(9))
        assert victim == key(1)  # LRU of Q0

    def test_expired_pages_demote(self):
        mq = MQPolicy(4, n_queues=4, life_time=3)
        mq.on_miss(key(0))
        for _ in range(3):
            mq.on_hit(key(0))   # Q2
        level = mq.queue_of(key(0))
        assert level == 2
        # Touch other pages until 0's lifetime expires repeatedly.
        for block in range(1, 4):
            mq.on_miss(key(block))
        for i in range(30):
            mq.on_hit(key(1 + (i % 3)))
        assert mq.queue_of(key(0)) < level

    def test_ghost_restores_frequency(self):
        mq = MQPolicy(2, n_queues=4, life_time=1000, qout_factor=4.0)
        mq.on_miss(key(0))
        for _ in range(3):
            mq.on_hit(key(0))          # freq 4
        mq.on_miss(key(1))
        # Force 0 out: hit 1 so 0 is the eviction candidate by queue...
        mq.on_remove(key(0))
        ghosts = dict(mq.ghost_entries())
        assert key(0) not in ghosts
        # Removed explicitly -> not a ghost; now test via eviction:
        mq.on_miss(key(0))             # freq restarts at 1 (no ghost)
        assert mq.frequency_of(key(0)) == 1
        mq.on_hit(key(0))              # freq 2
        victim = mq.on_miss(key(2))    # evicts 1 (freq 1)
        assert victim == key(1)
        assert (key(1), 1) in mq.ghost_entries()
        mq.on_miss(key(1))             # ghost hit: freq restored + 1
        assert mq.frequency_of(key(1)) == 2

    def test_qout_bounded(self):
        mq = MQPolicy(4, qout_factor=2.0)
        for block in range(100):
            mq.on_miss(key(block))
        assert len(list(mq.ghost_entries())) <= mq.qout_capacity


class TestARC:
    def test_t1_hit_moves_to_t2(self):
        arc = ARCPolicy(8)
        arc.on_miss(key(0))
        assert key(0) in arc.t1_keys
        arc.on_hit(key(0))
        assert key(0) in arc.t2_keys

    def test_pure_cold_stream_leaves_no_b1(self):
        # Canonical ARC case IV(a): with T1 full and B1 empty the T1
        # LRU is dropped outright, never ghosted.
        arc = ARCPolicy(4)
        for block in range(8):
            arc.on_miss(key(block))
        assert list(arc.b1_keys) == []

    def test_b1_ghost_hit_grows_p(self):
        arc = ARCPolicy(4)
        arc.on_miss(key(0))
        arc.on_hit(key(0))            # 0 -> T2
        for block in range(1, 5):
            arc.on_miss(key(block))   # REPLACE demotes T1 LRU into B1
        assert key(1) in arc.b1_keys
        before = arc.p
        arc.on_miss(key(1))
        assert arc.p > before
        assert key(1) in arc.t2_keys

    def test_b2_ghost_hit_shrinks_p(self):
        arc = ARCPolicy(4)
        for block in range(4):
            arc.on_miss(key(block))
            arc.on_hit(key(block))    # all in T2
        for block in range(10, 16):
            arc.on_miss(key(block))   # T2 pages spill into B2
        b2 = list(arc.b2_keys)
        assert b2
        arc._p = 3.0                  # force nonzero to observe shrink
        arc.on_miss(b2[0])
        assert arc.p < 3.0

    def test_scan_resistance(self):
        # One-touch scans live and die in T1 without displacing T2.
        arc = ARCPolicy(20)
        hot = [key(block) for block in range(4)]
        rng = random.Random(6)
        for _ in range(300):
            arc.access(hot[rng.randrange(4)])
        scan(arc, 1000, 200)
        surviving = sum(1 for page in hot if page in arc)
        assert surviving == 4

    def test_history_bounded(self):
        arc = ARCPolicy(8)
        for block in range(1000):
            arc.access(key(block % 60))
        assert len(list(arc.b1_keys)) + len(list(arc.t1_keys)) <= 8 + 8
        total = (len(list(arc.t1_keys)) + len(list(arc.t2_keys))
                 + len(list(arc.b1_keys)) + len(list(arc.b2_keys)))
        assert total <= 16


class TestCAR:
    def test_hits_set_reference_bit_only(self):
        car = CARPolicy(8)
        car.on_miss(key(0))
        assert not car.reference_bit(key(0))
        car.on_hit(key(0))
        assert car.reference_bit(key(0))

    def test_referenced_t1_page_promotes_to_t2_on_sweep(self):
        car = CARPolicy(2)
        car.on_miss(key(0))
        car.on_hit(key(0))
        car.on_miss(key(1))
        car.on_miss(key(2))  # sweep: 0 referenced -> T2; victim found
        assert key(0) in car
        assert not car.reference_bit(key(0))

    def test_ghost_hit_adapts_p(self):
        car = CARPolicy(4)
        for block in range(4):
            car.on_miss(key(block))
        car.on_hit(key(0))
        car.on_hit(key(1))            # 0,1 referenced -> promoted on sweep
        car.on_miss(key(10))          # sweep: 0,1 -> T2; evicts 2 -> B1
        assert key(2) in car._b1
        before = car.p
        car.on_miss(key(2))           # B1 ghost hit
        assert car.p > before
        assert key(2) in car


class TestClockPro:
    def test_first_pages_are_cold(self):
        cpro = ClockProPolicy(8)
        cpro.on_miss(key(0))
        assert cpro.status_of(key(0)) == "cold"

    def test_ghost_hit_becomes_hot_and_grows_cold_target(self):
        cpro = ClockProPolicy(4)
        for block in range(20):
            cpro.on_miss(key(block))
        ghosts = [k for k, node in cpro._nodes.items()
                  if node.status == "ghost"]
        assert ghosts
        target_before = cpro.cold_target
        chosen = ghosts[0]
        cpro.on_miss(chosen)
        assert cpro.status_of(chosen) == "hot"
        assert cpro.cold_target >= target_before

    def test_counts_consistent(self):
        cpro = ClockProPolicy(16)
        rng = random.Random(13)
        for _ in range(3000):
            block = rng.randint(0, 80)
            cpro.access(key(block))
            assert cpro.hot_count + cpro.cold_count == cpro.resident_count
            assert cpro.resident_count <= 16
            assert cpro.ghost_count <= 16 + 1

    def test_loop_beats_clock(self):
        from repro.policies import ClockPolicy
        capacity = 20
        cpro = ClockProPolicy(capacity)
        clock = ClockPolicy(capacity)
        cpro_hits = clock_hits = 0
        for i in range(3000):
            block = i % (capacity + 5)
            cpro_hits += cpro.access(key(block)).hit
            clock_hits += clock.access(key(block)).hit
        assert clock_hits < 100
        assert cpro_hits > clock_hits


class TestSEQ:
    def test_detects_sequences(self):
        seq = SEQPolicy(100, seq_threshold=8)
        for block in range(20):
            seq.on_miss(("table_a", block))
        lengths = seq.active_sequence_lengths()
        assert lengths.get("table_a") == 20

    def test_broken_run_restarts(self):
        seq = SEQPolicy(100, seq_threshold=8)
        for block in range(5):
            seq.on_miss(("table_a", block))
        seq.on_miss(("table_a", 50))
        assert seq.active_sequence_lengths()["table_a"] == 1

    def test_sequence_pages_sacrificed_before_hot_pages(self):
        seq = SEQPolicy(30, seq_threshold=10)
        hot = [key(block) for block in range(5)]
        rng = random.Random(14)
        for _ in range(200):
            seq.access(hot[rng.randrange(5)])
        # A long sequential scan: victims should come from the scan.
        for block in range(1000, 1060):
            seq.access(("scan_table", block))
        for page in hot:
            assert page in seq, "scan displaced a hot page"

    def test_plain_lru_without_tuple_keys(self):
        seq = SEQPolicy(2, seq_threshold=4)
        seq.access("a")
        seq.access("b")
        seq.access("a")
        assert seq.access("c").evicted == "b"

    def test_hit_refreshes_recency(self):
        seq = SEQPolicy(2)
        seq.on_miss(key(0))
        seq.on_miss(key(1))
        seq.on_hit(key(0))
        assert seq.on_miss(key(2)) == key(1)


class TestSeqHousekeeping:
    def test_max_sequences_trims_weakest(self):
        from repro.policies.seq import SEQPolicy
        policy = SEQPolicy(1000, seq_threshold=4, max_sequences=3)
        # Start runs in 5 spaces; the two weakest must be forgotten.
        for space_index in range(5):
            for block in range(space_index + 1):
                policy.on_miss((f"s{space_index}", block))
        lengths = policy.active_sequence_lengths()
        assert len(lengths) <= 3

    def test_non_tuple_keys_do_not_track_sequences(self):
        from repro.policies.seq import SEQPolicy
        policy = SEQPolicy(10)
        policy.on_miss("plain-string-key")
        assert policy.active_sequence_lengths() == {}


class TestLIRSEdges:
    def test_capacity_one(self):
        from repro.policies.lirs import LIRSPolicy
        policy = LIRSPolicy(1)
        for block in range(20):
            policy.access(("t", block % 3))
            assert policy.resident_count <= 1

    def test_invalid_hir_fraction(self):
        from repro.policies.lirs import LIRSPolicy
        with pytest.raises(PolicyError):
            LIRSPolicy(10, hir_fraction=1.5)
