"""Tests for the correctness subsystem (repro.check).

Three layers: the lock-protocol shadow monitor must catch every class
of protocol violation; policy structural invariants must pass on honest
states and fail on corrupted ones; and the differential oracle must
prove batched/direct equivalence on real runs — while reliably flagging
the deliberately-sabotaged replay (the mutation canary that proves the
oracle has teeth).
"""

from __future__ import annotations

import pytest

from repro.check import (CorrectnessChecker, LockMonitor, differential_check,
                         generate_cases, record_arrivals, run_case,
                         run_fuzzer, shrink_case)
from repro.check.fuzzer import FuzzCase
from repro.errors import CheckError, PolicyError
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.systems import SYSTEM_NAMES
from repro.policies.arc import ARCPolicy
from repro.policies.lirs import LIRSPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.twoq import TwoQPolicy


def small_config(**overrides) -> ExperimentConfig:
    """A fast multi-threaded configuration with real evictions."""
    defaults = dict(
        system="pgBat", workload="tablescan",
        workload_kwargs={"n_tables": 4, "pages_per_table": 40},
        n_processors=2, n_threads=4, buffer_pages=96,
        target_accesses=800, warmup_fraction=0.0,
        policy_name="2q", queue_size=8, batch_threshold=4, seed=11)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLockMonitor:
    def test_clean_protocol_accepted(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_blocked("L", "b", 0)
        monitor.on_released("L", "a", "b")
        monitor.on_granted("L", "b")
        monitor.on_released("L", "b", None)
        monitor.finalize()
        summary = monitor.summary()["L"]
        assert summary["grants"] == 2
        assert summary["releases"] == 2

    def test_grant_while_held(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        with pytest.raises(CheckError, match="still owned"):
            monitor.on_granted("L", "b")

    def test_double_release(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_released("L", "a", None)
        with pytest.raises(CheckError, match="double release"):
            monitor.on_released("L", "a", None)

    def test_release_by_non_owner(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        with pytest.raises(CheckError, match="owned by"):
            monitor.on_released("L", "b", None)

    def test_lost_wakeup_on_release(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_blocked("L", "b", 0)
        with pytest.raises(CheckError, match="lost wakeup"):
            monitor.on_released("L", "a", None)   # woke nobody

    def test_fifo_violation(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_blocked("L", "b", 0)
        monitor.on_blocked("L", "c", 1)
        with pytest.raises(CheckError, match="FIFO head"):
            monitor.on_released("L", "a", "c")    # skipped b

    def test_requeue_must_rotate_to_tail(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_blocked("L", "b", 0)
        monitor.on_blocked("L", "c", 1)
        monitor.on_released("L", "a", "b")        # b woken
        monitor.on_granted("L", "d")              # barger wins
        # b lost the race; a front re-queue (position 0) is the
        # starvation-prone behavior the fix ruled out.
        with pytest.raises(CheckError, match="tail"):
            monitor.on_requeued("L", "b", 0, 2)

    def test_requeue_at_tail_accepted(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_blocked("L", "b", 0)
        monitor.on_blocked("L", "c", 1)
        monitor.on_released("L", "a", "b")
        monitor.on_granted("L", "d")
        monitor.on_requeued("L", "b", 1, 2)       # tail of [c, b]
        assert monitor.summary()["L"]["requeues"] == 1

    def test_spurious_requeue(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        with pytest.raises(CheckError, match="without having been woken"):
            monitor.on_requeued("L", "b", 0, 1)

    def test_finalize_catches_stranded_waiter(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        monitor.on_blocked("L", "b", 0)
        monitor.on_blocked("L", "c", 1)
        monitor.on_released("L", "a", "b")
        monitor.on_granted("L", "b")
        monitor.on_released("L", "b", "c")
        monitor.on_granted("L", "c")
        monitor.on_released("L", "c", None)
        monitor.finalize()                        # clean: all served
        stranded = LockMonitor()
        stranded.on_granted("L", "a")
        stranded.on_blocked("L", "b", 0)
        stranded.shadow("L").owner = None         # fake a lost release
        with pytest.raises(CheckError, match="lost wakeup"):
            stranded.finalize()

    def test_finalize_catches_leaked_ownership(self):
        monitor = LockMonitor()
        monitor.on_granted("L", "a")
        with pytest.raises(CheckError, match="missing release"):
            monitor.finalize()


class TestCheckerFacade:
    def test_commit_without_lock_rejected(self):
        checker = CorrectnessChecker()
        with pytest.raises(CheckError, match="without holding"):
            checker.on_commit("L", "a", holds_lock=False)

    def test_commit_checked_against_shadow_owner(self):
        checker = CorrectnessChecker()
        checker.on_lock_granted("L", "a")
        # The component *claims* b holds the lock, but the monitor's
        # shadow says a does: the independent state wins.
        with pytest.raises(CheckError, match="commit by"):
            checker.on_commit("L", "b", holds_lock=True)

    def test_policy_commit_runs_invariants(self):
        checker = CorrectnessChecker()
        policy = TwoQPolicy(8)
        for block in range(12):
            policy.access(("t", block))
        checker.on_policy_commit(policy)
        assert checker.invariant_checks == 1

    def test_disabled_layers_are_inert(self):
        checker = CorrectnessChecker(check_locks=False,
                                     check_policies=False,
                                     record_arrivals=False)
        checker.on_lock_granted("L", "a")
        checker.on_lock_granted("L", "b")   # would raise with monitor
        checker.on_access(0, ("t", 1), False)
        assert checker.arrivals is None
        checker.finalize()


class TestPolicyInvariants:
    def test_honest_states_pass(self):
        for policy in (LRUPolicy(8), TwoQPolicy(8), LIRSPolicy(8),
                       ARCPolicy(8)):
            for block in range(30):
                policy.access(("t", block % 12))
            policy.check_invariants()

    def test_twoq_overlap_detected(self):
        policy = TwoQPolicy(8)
        for block in range(4):
            policy.access(("t", block))
        resident = next(iter(policy.resident_keys()))
        policy._am[resident] = None        # now in A1in AND Am
        # The generic layer already flags this as a duplicate resident
        # key; either detection is acceptable.
        with pytest.raises(PolicyError):
            policy.check_invariants()

    def test_twoq_resident_ghost_detected(self):
        policy = TwoQPolicy(8)
        for block in range(4):
            policy.access(("t", block))
        resident = next(iter(policy.resident_keys()))
        policy._a1out[resident] = None     # ghost of a resident page
        with pytest.raises(PolicyError, match="still resident"):
            policy.check_invariants()

    def test_twoq_ghost_bound_detected(self):
        policy = TwoQPolicy(8)
        for block in range(40):
            policy.access(("t", block))
        for block in range(1000, 1000 + policy.kout + 1):
            policy._a1out[("t", block)] = None
        with pytest.raises(PolicyError, match="kout"):
            policy.check_invariants()

    def test_lirs_counter_drift_detected(self):
        policy = LIRSPolicy(8)
        for block in range(30):
            policy.access(("t", block % 12))
        policy._ghost_count += 1
        with pytest.raises(PolicyError, match="ghost"):
            policy.check_invariants()

    def test_arc_p_out_of_range_detected(self):
        policy = ARCPolicy(8)
        for block in range(20):
            policy.access(("t", block % 10))
        policy._p = policy.capacity + 5.0
        with pytest.raises(PolicyError, match="outside"):
            policy.check_invariants()

    def test_arc_list_overlap_detected(self):
        policy = ARCPolicy(8)
        for block in range(20):
            policy.access(("t", block % 10))
        resident = next(iter(policy.resident_keys()))
        policy._b1[resident] = None
        with pytest.raises(PolicyError, match="overlap"):
            policy.check_invariants()


class TestCheckedExperiment:
    def test_checked_run_is_clean_and_records(self):
        checker = CorrectnessChecker()
        result = run_experiment(small_config(), checker=checker)
        # The run drained, so the quiescence sweep ran inside
        # run_experiment without raising.
        assert checker.finalized
        assert checker.commit_checks > 0
        assert checker.invariant_checks > 0
        # Arrival recording captured the global access order: one
        # record per page access the buffer manager served.
        assert len(checker.arrivals) == result.total_accesses
        assert result.misses > 0           # evictions were exercised

    @pytest.mark.parametrize("system", [
        *SYSTEM_NAMES, "pgDist", "pgBatShared", "pgBatLossy"])
    def test_checker_sees_every_system(self, system):
        """pgBatShared and pgDist used to replay outside
        ``_commit_locked``'s hooks: ``--check`` verified nothing."""
        checker = CorrectnessChecker()
        run_experiment(small_config(system=system, use_disk=True),
                       checker=checker)
        assert checker.finalized
        assert checker.commit_checks > 0
        assert checker.invariant_checks > 0

    def test_checker_does_not_alter_measurements(self):
        plain = run_experiment(small_config())
        checked = run_experiment(small_config(),
                                 checker=CorrectnessChecker())
        assert checked.throughput_tps == pytest.approx(
            plain.throughput_tps)
        assert checked.elapsed_us == pytest.approx(plain.elapsed_us)
        assert checked.hits == plain.hits


class TestDifferentialOracle:
    @pytest.mark.parametrize("policy", ["2q", "lru"])
    @pytest.mark.parametrize("seed", [11, 17, 23])
    def test_batched_equivalent_to_direct(self, policy, seed):
        config = small_config(policy_name=policy, seed=seed)
        verdict = differential_check(config, baseline="pg2Q",
                                     candidate="pgBat")
        assert verdict.equivalent, verdict.detail
        assert verdict.n_evictions > 0     # the claim is non-vacuous

    def test_batpre_equivalent_too(self):
        verdict = differential_check(small_config(), baseline="pg2Q",
                                     candidate="pgBatPre")
        assert verdict.equivalent, verdict.detail

    def test_degenerate_threshold_equivalent(self):
        config = small_config(queue_size=8, batch_threshold=8)
        verdict = differential_check(config)
        assert verdict.equivalent, verdict.detail

    def test_inject_reorder_canary_trips(self):
        # The mutation canary: reversing each batch at drain time must
        # be caught, proving the oracle can actually fail. LRU makes
        # the divergence certain once multi-entry batches exist —
        # which needs threads *sharing* tables (8 threads over 4
        # tables), since a lone scanner of a thrashing LRU never hits.
        config = small_config(policy_name="lru", n_threads=8,
                              n_processors=4)
        verdict = differential_check(config, inject_reorder=True)
        assert not verdict.equivalent
        assert verdict.n_evictions > 0

    def test_arrivals_reusable_across_candidates(self):
        config = small_config()
        arrivals = record_arrivals(config)
        a = differential_check(config, candidate="pgBat",
                               arrivals=arrivals)
        b = differential_check(config, candidate="pgBatPre",
                               arrivals=arrivals)
        assert a.equivalent and b.equivalent
        assert a.n_arrivals == b.n_arrivals == len(arrivals)


class TestFuzzer:
    def test_case_generation_deterministic(self):
        assert generate_cases(7, 8) == generate_cases(7, 8)
        assert generate_cases(7, 8) != generate_cases(8, 8)

    def test_corners_always_covered(self):
        cases = generate_cases(0, 8)
        assert any(c.queue_size == c.batch_threshold > 1 for c in cases)
        assert any(c.queue_size == 1 for c in cases)

    def test_clean_cases_pass(self):
        for case in generate_cases(3, 2):
            assert run_case(case) is None

    def test_verdicts_deterministic(self):
        first = run_fuzzer(5, 2, shrink=False)
        second = run_fuzzer(5, 2, shrink=False)
        assert [o.passed for o in first.outcomes] == \
               [o.passed for o in second.outcomes]
        assert first.ok and second.ok

    def test_injected_failure_found_and_shrunk(self):
        case = FuzzCase(seed=1, system="pgBat", policy="lru",
                        n_processors=4, n_threads=8, queue_size=8,
                        batch_threshold=4, buffer_pages=96,
                        target_accesses=800, inject_reorder=True)
        error = run_case(case)
        assert error is not None and "divergence" in error
        shrunk = shrink_case(case, error)
        assert run_case(shrunk) is not None
        assert (shrunk.target_accesses, shrunk.n_threads) <= \
               (case.target_accesses, case.n_threads)
