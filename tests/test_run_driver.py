"""The one run driver (harness/driver.py) and the runtime lifecycle.

Every tier — trace (``run_experiment``), macro (``run_macro``), serve
(``run_serve``) — goes through :func:`repro.harness.driver.run`, so the
rules and the failure paths are tested once, across all three entry
points.
"""

from __future__ import annotations

import threading

import pytest

from repro.bufmgr.tags import PageId
from repro.check.checker import CorrectnessChecker
from repro.errors import ConfigError, SimulationError
from repro.harness import driver
from repro.harness.experiment import ExperimentConfig, run_experiment
from repro.harness.macro import MacroConfig, run_macro
from repro.runtime.base import MutexLock, Runtime, ThreadContext
from repro.runtime.mp import MpRuntime
from repro.runtime.native import NativeRuntime
from repro.serve import ServeConfig, run_serve
from repro.simcore.engine import Simulator

#: tier -> its entry point called with config overrides and a checker
#: (``run_macro`` takes none).
ENTRY_POINTS = {
    "trace": lambda bad, checker: run_experiment(
        ExperimentConfig(workload="tablescan", **bad), checker=checker),
    "macro": lambda bad, checker: run_macro(MacroConfig(**bad)),
    "serve": lambda bad, checker: run_serve(
        ServeConfig(**bad), checker=checker),
}


def protocol_members(protocol) -> set:
    """The public names ``protocol`` declares: annotations and methods."""
    return {name for name in (*protocol.__annotations__, *vars(protocol))
            if not name.startswith("_")}


@pytest.mark.parametrize("runtime", [Simulator(), NativeRuntime()])
def test_both_backends_implement_the_whole_lifecycle(runtime):
    assert isinstance(runtime, Runtime)
    thread = runtime.create_thread(runtime.create_pool(1))
    assert isinstance(thread, ThreadContext)
    assert isinstance(runtime.create_lock(), MutexLock)
    # The thread protocol holds only what both backends use: the
    # per-access settle step (maybe_yield) is the simulator's own.
    members = protocol_members(ThreadContext)
    assert members == {"name", "runtime", "pending_us", "charge", "spend",
                       "run_for", "wait", "sleep_blocked", "yield_cpu"}
    assert [name for name in sorted(members)
            if not hasattr(thread, name)] == []
    assert hasattr(thread, "maybe_yield") == isinstance(runtime, Simulator)


class TestAccessOrderedPrewarm:
    def test_prefix_is_distinct_and_access_ordered(self):
        from repro.workloads.registry import make_workload
        workload = make_workload("dbt1", seed=2, scale=0.1)
        prefix = driver.access_ordered_prefix(workload, 100)
        assert len(prefix) == 100
        assert len(set(prefix)) == 100
        # The hottest page (item index root) appears early.
        assert PageId("item_idx", 0) in prefix[:40]


# -- validation exists once ------------------------------------------------


@pytest.mark.parametrize("bad, with_checker, needle", [
    (dict(n_processors=64), False,
     "Altix350 has at most 16 processors, asked for 64"),
    (dict(system="pgclock", policy_name="fifo", runtime="native"), False,
     "no race-tolerant on_hit_relaxed path"),
    (dict(runtime="native"), True, "shadows the sim lock protocol"),
    # mp used to accept T > S, and its workers' queues outgrew S.
    (dict(system="pgBat", queue_size=8, batch_threshold=32), False,
     "batch_threshold must be in [1, queue_size=8], got 32"),
])
def test_same_bad_config_same_message_from_every_tier(bad, with_checker,
                                                      needle, monkeypatch):
    def fork(*args):
        raise AssertionError("mp forked its workers")

    # mp must reject the config before it forks a worker.
    monkeypatch.setattr(MpRuntime, "join", fork)
    messages = set()
    entry_points = dict(ENTRY_POINTS)
    if "policy_name" not in bad:  # mp has its own fixed policy core
        # The trace tier's third runtime: validated before the dispatch.
        entry_points["trace-mp"] = lambda bad, checker: (
            ENTRY_POINTS["trace"](dict(bad, runtime="mp"), checker))
    for tier, entry_point in entry_points.items():
        if with_checker and tier == "macro":
            continue  # run_macro has no checker to reject
        checker = CorrectnessChecker() if with_checker else None
        with pytest.raises(ConfigError) as excinfo:
            entry_point(bad, checker)
        messages.add(str(excinfo.value))
    assert len(messages) == 1, messages
    assert needle in messages.pop()


def test_sharded_macro_rejects_a_background_writer():
    """It used to record ``"background_writer": true`` and run none."""
    with pytest.raises(ConfigError, match="background writer"):
        run_macro(MacroConfig(n_shards=2, background_writer=True,
                              target_queries=8))


def test_rejected_native_serve_run_leaves_no_thread_behind():
    """The policy check used to run after the sampler had started."""
    before = set(threading.enumerate())
    with pytest.raises(ConfigError, match="on_hit_relaxed"):
        run_serve(ServeConfig(
            system="pgclock", policy_name="fifo", runtime="native",
            telemetry_interval_us=1000.0, n_shards=2, n_tenants=2,
            target_requests=50))
    assert set(threading.enumerate()) == before


# -- the native join deadline ----------------------------------------------


@pytest.mark.parametrize("tier, overrides, stuck", [
    ("trace", dict(system="pgBat", n_processors=2, n_threads=2,
                   target_accesses=10**9, use_disk=True,
                   background_writer=True), "backend-0"),
    ("macro", dict(n_processors=2, target_queries=10**9,
                   background_writer=True), "backend-0"),
    ("serve", dict(n_shards=2, n_tenants=2, sessions_per_tenant=1,
                   target_requests=10**9, telemetry_interval_us=5_000.0),
     "session-tenant00-0"),
])
def test_native_deadline_names_the_stuck_and_stops_everything(
        tier, overrides, stuck, monkeypatch):
    """An unreachable target against a 20 ms wall budget: every body is
    still alive at the deadline."""
    runs = []

    class SpyRun(driver.Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(driver, "Run", SpyRun)
    with pytest.raises(SimulationError) as excinfo:
        ENTRY_POINTS[tier](dict(overrides, runtime="native",
                                max_sim_time_us=20_000.0), None)
    message = str(excinfo.value)
    assert "threads still alive" in message and stuck in message
    assert "possible deadlock" in message
    run, = runs
    assert run.shared["stop"] is True
    assert run.daemons, "expected a bgwriter or sampler daemon"
    # The flag reaches everyone: bodies leave at their next unit-of-work
    # boundary, daemons at their next wakeup.
    for thread in [*run.threads, *(d.thread for d in run.daemons)]:
        assert thread.join(timeout=10.0), (
            f"{thread.name} outlived the stop flag")
