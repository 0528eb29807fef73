"""Tests for the database substrate: storage, relations, transactions."""

from __future__ import annotations

import pytest

from repro.db.relations import Relation, Schema
from repro.db.storage import DiskArray
from repro.db.transactions import (Transaction, TransactionLog,
                                   TransactionOutcome)
from repro.bufmgr.tags import PageId
from repro.errors import SimulationError, WorkloadError
from repro.simcore.cpu import CpuBoundThread, ProcessorPool
from repro.simcore.engine import Simulator


class TestRelation:
    def test_page_bounds(self):
        relation = Relation("t", 4)
        assert relation.page(0) == PageId("t", 0)
        assert relation.page(3) == PageId("t", 3)
        with pytest.raises(WorkloadError):
            relation.page(4)
        with pytest.raises(WorkloadError):
            relation.page(-1)

    def test_pages_iterates_in_order(self):
        relation = Relation("t", 3)
        assert list(relation.pages) == [PageId("t", block)
                                          for block in range(3)]

    def test_zero_pages_rejected(self):
        with pytest.raises(WorkloadError):
            Relation("t", 0)


class TestSchema:
    def test_lookup_and_totals(self):
        schema = Schema([Relation("a", 2), Relation("b", 3)])
        assert schema["a"].n_pages == 2
        assert schema.total_pages == 5
        assert len(list(schema.all_pages())) == 5
        assert "a" in schema and "zzz" not in schema

    def test_duplicate_rejected(self):
        with pytest.raises(WorkloadError):
            Schema([Relation("a", 1), Relation("a", 2)])

    def test_unknown_lookup_raises(self):
        schema = Schema([Relation("a", 1)])
        with pytest.raises(WorkloadError):
            schema["missing"]


class TestDiskArray:
    def test_validation(self, sim):
        with pytest.raises(SimulationError):
            DiskArray(sim, 100.0, 0)
        with pytest.raises(SimulationError):
            DiskArray(sim, 0.0, 1)
        with pytest.raises(SimulationError):
            DiskArray(sim, 100.0, 1, jitter_fraction=1.5)

    def run_reads(self, sim, disk, n_reads, n_cpus=4):
        pool = ProcessorPool(sim, n_cpus, 0.0)
        done = []

        def body(thread):
            yield from disk.read(thread)
            done.append(sim.now)

        for index in range(n_reads):
            thread = CpuBoundThread(pool, f"r{index}")
            thread.start(body(thread))
        sim.run()
        return done

    def test_parallel_reads_up_to_concurrency(self, sim):
        disk = DiskArray(sim, 100.0, concurrency=2)
        done = self.run_reads(sim, disk, 2)
        assert done == [100.0, 100.0]

    def test_queueing_beyond_concurrency(self, sim):
        disk = DiskArray(sim, 100.0, concurrency=2)
        done = self.run_reads(sim, disk, 4)
        assert sorted(done) == [100.0, 100.0, 200.0, 200.0]
        assert disk.reads == 4
        assert disk.total_queue_wait_us == pytest.approx(200.0)

    def test_mean_latency(self, sim):
        disk = DiskArray(sim, 50.0, concurrency=1)
        self.run_reads(sim, disk, 2)
        # Second read waits 50 then services 50 -> mean (50+100)/2.
        assert disk.mean_latency_us() == pytest.approx(75.0)

    def start_readers(self, sim, disk, n_reads):
        pool = ProcessorPool(sim, n_reads, 0.0)
        done = []

        def body(thread):
            yield from disk.read(thread)
            done.append((thread.name, sim.now))

        threads = [CpuBoundThread(pool, f"r{index}")
                   for index in range(n_reads)]
        for thread in threads:
            thread.start(body(thread))
        return threads, done

    def test_reader_closed_while_queued_leaves_queue(self, sim):
        disk = DiskArray(sim, 100.0, concurrency=1)
        threads, done = self.start_readers(sim, disk, 3)
        sim.run(until=50.0)
        assert disk.queue_depth == 2
        threads[1].abort()
        assert disk.queue_depth == 1
        sim.run()
        assert done == [("r0", 100.0), ("r2", 200.0)]
        assert (disk._busy, disk.queue_depth) == (0, 0)

    def test_reader_closed_mid_service_hands_slot_on(self, sim):
        disk = DiskArray(sim, 100.0, concurrency=1)
        threads, done = self.start_readers(sim, disk, 3)
        sim.run(until=50.0)
        threads[0].abort()
        assert disk.queue_depth == 1  # r1 got the slot
        sim.run()
        # r0's service timer still pops at 100 and resumes nobody.
        assert done == [("r1", 150.0), ("r2", 250.0)]
        assert (disk._busy, disk.queue_depth) == (0, 0)

    def test_woken_reader_closed_hands_slot_on(self, sim, step):
        """Closed after the finishing read handed it the slot, but
        before it resumed: the slot goes to the next waiter."""
        disk = DiskArray(sim, 100.0, concurrency=1)
        threads, done = self.start_readers(sim, disk, 3)
        sim.run(until=50.0)
        while disk.queue_depth == 2:
            step(sim)
        # r0 finished and woke r1, which has not resumed yet.
        assert sim.now == 100.0 and done == [("r0", 100.0)]
        threads[1].abort()
        assert disk.queue_depth == 0
        sim.run()
        assert done == [("r0", 100.0), ("r2", 200.0)]
        assert (disk._busy, disk.queue_depth) == (0, 0)

    def test_jitter_is_deterministic(self):
        def total_time(seed):
            sim = Simulator()
            disk = DiskArray(sim, 100.0, 1, jitter_fraction=0.2,
                             seed=seed)
            self.run_reads(sim, disk, 3)
            return sim.now

        assert total_time(1) == total_time(1)
        assert total_time(1) != total_time(2)


class TestTransactionLog:
    def test_throughput_and_response(self):
        log = TransactionLog()
        log.record(TransactionOutcome("a", 0.0, 1000.0, 10, 9))
        log.record(TransactionOutcome("a", 500.0, 2500.0, 10, 10))
        assert log.count == 2
        # 2 transactions in 2.5 ms of simulated time.
        assert log.throughput_tps(2500.0) == pytest.approx(800.0)
        assert log.mean_response_time_us() == pytest.approx(1500.0)

    def test_empty_log_guards(self):
        log = TransactionLog()
        assert log.throughput_tps(1000.0) == 0.0
        assert log.mean_response_time_us() == 0.0

    def test_transaction_len_and_work_factor(self):
        transaction = Transaction("scan", [PageId("t", 0)] * 7,
                                  work_factor=0.4)
        assert len(transaction) == 7
        assert transaction.work_factor == 0.4


class TestResponsePercentiles:
    def make_log(self):
        log = TransactionLog()
        for index in range(100):
            log.record(TransactionOutcome("t", 0.0, float(index + 1),
                                          1, 1))
        return log

    def test_percentiles(self):
        log = self.make_log()
        assert log.percentile_response_time_us(50.0) == pytest.approx(50.0)
        assert log.percentile_response_time_us(95.0) == pytest.approx(95.0)
        assert log.percentile_response_time_us(100.0) == pytest.approx(100.0)

    def test_percentile_bounds(self):
        log = self.make_log()
        with pytest.raises(ValueError):
            log.percentile_response_time_us(0.0)
        with pytest.raises(ValueError):
            log.percentile_response_time_us(101.0)

    def test_empty_log(self):
        assert TransactionLog().percentile_response_time_us(95.0) == 0.0

    def test_single_outcome_every_percentile(self):
        log = TransactionLog()
        log.record(TransactionOutcome("t", 0.0, 42.0, 1, 1))
        for percentile in (0.1, 1.0, 50.0, 99.9, 100.0):
            assert log.percentile_response_time_us(percentile) == 42.0

    def test_p100_is_max_regardless_of_insertion_order(self):
        log = TransactionLog()
        for finished in (5.0, 1.0, 9.0, 3.0):
            log.record(TransactionOutcome("t", 0.0, finished, 1, 1))
        assert log.percentile_response_time_us(100.0) == 9.0

    def test_ties_resolve_by_nearest_rank(self):
        log = TransactionLog()
        for finished in (10.0, 10.0, 10.0, 20.0):
            log.record(TransactionOutcome("t", 0.0, finished, 1, 1))
        assert log.percentile_response_time_us(50.0) == 10.0
        assert log.percentile_response_time_us(75.0) == 10.0
        assert log.percentile_response_time_us(90.0) == 20.0

    def test_mix(self):
        log = TransactionLog()
        log.record(TransactionOutcome("a", 0, 1, 1, 1))
        log.record(TransactionOutcome("a", 0, 1, 1, 1))
        log.record(TransactionOutcome("b", 0, 1, 1, 1))
        assert log.mix() == {"a": 2, "b": 1}
