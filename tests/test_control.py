"""Control-plane tests: ControlState, named defaults, the adapter."""

from __future__ import annotations

import pytest

from repro.control import (SERVE_DEFAULTS, TRACE_DEFAULTS, ControlState,
                           ThresholdAdapter, available_controllers,
                           bp_kwargs, make_controller)
from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350
from repro.harness.systems import build_system
from repro.simcore.engine import Simulator


class TestControlState:
    def test_invalid_queue_size(self):
        with pytest.raises(ConfigError):
            ControlState(queue_size=0, batch_threshold=1, prefetch=False)

    def test_threshold_must_fit_queue(self):
        with pytest.raises(ConfigError):
            ControlState(queue_size=8, batch_threshold=9, prefetch=False)
        with pytest.raises(ConfigError):
            ControlState(queue_size=8, batch_threshold=0, prefetch=False)

    def test_set_batch_threshold_bounds(self):
        control = ControlState(queue_size=16, batch_threshold=8,
                               prefetch=False)
        control.set_batch_threshold(16)
        assert control.batch_threshold == 16
        control.set_batch_threshold(1)
        assert control.batch_threshold == 1
        with pytest.raises(ConfigError):
            control.set_batch_threshold(17)
        with pytest.raises(ConfigError):
            control.set_batch_threshold(0)
        # A rejected write leaves the last good value in place.
        assert control.batch_threshold == 1

    def test_to_dict_is_json_shape(self):
        control = ControlState(queue_size=16, batch_threshold=8,
                               prefetch=True, policy_name="lru")
        assert control.to_dict() == {
            "queue_size": 16,
            "batch_threshold": 8,
            "prefetch": True,
            "policy_name": "lru",
        }


class TestNamedDefaults:
    def test_trace_defaults_are_paper_defaults(self):
        assert TRACE_DEFAULTS.queue_size == 64
        assert TRACE_DEFAULTS.batch_threshold == 32
        # An unbatched row's pool keeps them whatever S and T say.
        control = build_system("pg2Q", Simulator(), 16, ALTIX_350,
                               queue_size=16, batch_threshold=8).control
        assert control.queue_size == TRACE_DEFAULTS.queue_size
        assert control.batch_threshold == TRACE_DEFAULTS.batch_threshold

    def test_serve_defaults_quarter_scale_same_ratio(self):
        assert SERVE_DEFAULTS.queue_size == 16
        assert SERVE_DEFAULTS.batch_threshold == 8
        trace_ratio = TRACE_DEFAULTS.batch_threshold / TRACE_DEFAULTS.queue_size
        serve_ratio = SERVE_DEFAULTS.batch_threshold / SERVE_DEFAULTS.queue_size
        assert trace_ratio == serve_ratio == 0.5

    def test_tiers_consume_the_named_defaults(self):
        from repro.harness.experiment import ExperimentConfig
        from repro.harness.macro import MacroConfig
        from repro.serve.config import ServeConfig
        experiment = ExperimentConfig(system="pgBat", workload="dbt1")
        assert experiment.queue_size == TRACE_DEFAULTS.queue_size
        assert experiment.batch_threshold == TRACE_DEFAULTS.batch_threshold
        macro = MacroConfig()
        assert macro.queue_size == SERVE_DEFAULTS.queue_size
        assert macro.batch_threshold == SERVE_DEFAULTS.batch_threshold
        serve = ServeConfig()
        assert serve.queue_size == SERVE_DEFAULTS.queue_size
        assert serve.batch_threshold == SERVE_DEFAULTS.batch_threshold


class TestBpKwargs:
    def test_shared_plumbing_triple(self):
        from repro.harness.experiment import ExperimentConfig
        config = ExperimentConfig(system="pgBat", workload="dbt1",
                                  policy_name="clock", queue_size=32,
                                  batch_threshold=4)
        assert bp_kwargs(config) == {
            "queue_size": 32,
            "batch_threshold": 4,
            "policy_name": "clock",
        }


# -- ThresholdAdapter unit tests against a fake pool ------------------------

class FakeStats:
    def __init__(self):
        self.requests = 0
        self.contentions = 0


class FakeLock:
    def __init__(self):
        self.stats = FakeStats()
        self.name = "fake_pool_lock"


class FakeHandler:
    def __init__(self, queue_size=64, batch_threshold=8):
        self.lock = FakeLock()
        self.control = ControlState(queue_size=queue_size,
                                    batch_threshold=batch_threshold,
                                    prefetch=False)


class FakeRuntime:
    def __init__(self, observer=None):
        self.observer = observer
        self.now = 0.0


class FakeThread:
    def __init__(self, observer=None):
        self.runtime = FakeRuntime(observer)


class FakeSlot:
    def __init__(self, observer=None):
        self.thread = FakeThread(observer)


def close_window(adapter, handler, slot, requests, contentions):
    """Advance the fake lock counters and push one full window."""
    handler.lock.stats.requests += requests
    handler.lock.stats.contentions += contentions
    for _ in range(adapter.window_commits):
        adapter.on_commit(handler, slot)


class TestThresholdAdapter:
    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            ThresholdAdapter(window_commits=0)
        with pytest.raises(ConfigError):
            ThresholdAdapter(low_water=0.1, high_water=0.05)
        with pytest.raises(ConfigError):
            ThresholdAdapter(low_water=-0.1)
        with pytest.raises(ConfigError):
            ThresholdAdapter(min_threshold=0)

    def test_first_window_only_arms_the_delta(self):
        adapter = ThresholdAdapter(window_commits=4)
        handler, slot = FakeHandler(batch_threshold=8), FakeSlot()
        close_window(adapter, handler, slot, requests=10, contentions=10)
        assert adapter.decisions == 0
        assert handler.control.batch_threshold == 8

    def test_high_contention_doubles_threshold(self):
        adapter = ThresholdAdapter(window_commits=1, cooldown_windows=0)
        handler, slot = FakeHandler(batch_threshold=8), FakeSlot()
        close_window(adapter, handler, slot, 10, 0)   # arm
        close_window(adapter, handler, slot, 100, 50)  # rate 0.5
        assert handler.control.batch_threshold == 16
        assert adapter.decisions == 1
        assert adapter.last_rate == pytest.approx(0.5)

    def test_doubling_caps_at_half_queue(self):
        adapter = ThresholdAdapter(window_commits=1, cooldown_windows=0)
        handler = FakeHandler(queue_size=64, batch_threshold=8)
        slot = FakeSlot()
        close_window(adapter, handler, slot, 10, 0)
        for _ in range(6):  # plenty of hot windows
            close_window(adapter, handler, slot, 100, 50)
        # 8 -> 16 -> 32, then pinned: threshold == queue leaves the
        # Fig. 4 TryLock no headroom, so the walk stops at queue // 2.
        assert handler.control.batch_threshold == 32
        assert adapter.decisions == 2

    def test_quiet_lock_halves_to_floor(self):
        adapter = ThresholdAdapter(window_commits=1, cooldown_windows=0,
                                   min_threshold=2)
        handler = FakeHandler(queue_size=64, batch_threshold=16)
        slot = FakeSlot()
        close_window(adapter, handler, slot, 10, 0)
        for _ in range(8):
            close_window(adapter, handler, slot, 100, 0)  # rate 0.0
        assert handler.control.batch_threshold == 2
        assert handler.control.batch_threshold >= adapter.min_threshold

    def test_mid_band_rate_holds_steady(self):
        adapter = ThresholdAdapter(window_commits=1, cooldown_windows=0,
                                   high_water=0.5, low_water=0.01)
        handler, slot = FakeHandler(batch_threshold=8), FakeSlot()
        close_window(adapter, handler, slot, 10, 0)
        close_window(adapter, handler, slot, 100, 10)  # rate 0.1
        assert handler.control.batch_threshold == 8
        assert adapter.decisions == 0

    def test_cooldown_damps_consecutive_moves(self):
        adapter = ThresholdAdapter(window_commits=1, cooldown_windows=2)
        handler = FakeHandler(queue_size=128, batch_threshold=4)
        slot = FakeSlot()
        close_window(adapter, handler, slot, 10, 0)
        close_window(adapter, handler, slot, 100, 50)  # move: 4 -> 8
        assert handler.control.batch_threshold == 8
        close_window(adapter, handler, slot, 100, 50)  # cooling
        close_window(adapter, handler, slot, 100, 50)  # cooling
        assert handler.control.batch_threshold == 8
        assert adapter.cooldown_skips == 2
        close_window(adapter, handler, slot, 100, 50)  # move: 8 -> 16
        assert handler.control.batch_threshold == 16
        assert adapter.decisions == 2

    def test_decisions_reach_the_observer(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def on_control_decision(self, pool, knob, old, new, now,
                                    reason):
                self.calls.append((pool, knob, old, new, reason))

        observer = Recorder()
        adapter = ThresholdAdapter(window_commits=1, cooldown_windows=0)
        handler, slot = FakeHandler(batch_threshold=8), FakeSlot(observer)
        close_window(adapter, handler, slot, 10, 0)
        close_window(adapter, handler, slot, 100, 50)
        assert observer.calls == [
            ("fake_pool_lock", "batch_threshold", 8, 16,
             "contention_rate=0.500000")]

    def test_identical_inputs_identical_summaries(self):
        summaries = []
        for _ in range(2):
            adapter = ThresholdAdapter(window_commits=2)
            handler, slot = FakeHandler(batch_threshold=4), FakeSlot()
            for requests, contentions in [(10, 0), (50, 20), (50, 20),
                                          (50, 0), (50, 0)]:
                close_window(adapter, handler, slot, requests, contentions)
            summaries.append((adapter.to_dict(),
                              handler.control.batch_threshold))
        assert summaries[0] == summaries[1]

    def test_to_dict_shape(self):
        adapter = ThresholdAdapter()
        summary = adapter.to_dict()
        assert summary["controller"] == "threshold"
        assert set(summary) == {"controller", "window_commits",
                                "high_water", "low_water", "commits",
                                "decisions", "cooldown_skips", "last_rate"}


class TestControllerRegistry:
    def test_available_controllers_sorted(self):
        names = available_controllers()
        assert "threshold" in names
        assert names == sorted(names)

    def test_make_controller(self):
        adapter = make_controller("threshold", window_commits=8)
        assert isinstance(adapter, ThresholdAdapter)
        assert adapter.window_commits == 8

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError):
            make_controller("pid")


class TestExperimentIntegration:
    def test_controlled_run_reports_summary(self, tiny_machine):
        from repro.harness.experiment import ExperimentConfig, run_experiment
        config = ExperimentConfig(
            system="pgBat", workload="tablescan", machine=tiny_machine,
            n_processors=4, target_accesses=2_000, buffer_pages=128,
            queue_size=16, batch_threshold=1, controller="threshold",
            seed=11)
        result = run_experiment(config)
        assert result.controller is not None
        assert result.controller["controller"] == "threshold"
        assert 1 <= result.controller["batch_threshold"] <= 16
        assert result.controller["commits"] > 0
        record = result.to_dict()
        assert record["controller"] == result.controller

    def test_uncontrolled_record_is_unchanged(self, tiny_machine):
        from repro.harness.experiment import ExperimentConfig, run_experiment
        config = ExperimentConfig(
            system="pgBat", workload="tablescan", machine=tiny_machine,
            n_processors=2, target_accesses=500, buffer_pages=128,
            seed=11)
        result = run_experiment(config)
        assert result.controller is None
        assert "controller" not in result.to_dict()

    def test_mp_backend_rejects_controllers(self, tiny_machine):
        from repro.harness.experiment import ExperimentConfig, run_experiment
        config = ExperimentConfig(
            system="pgBat", workload="tablescan", machine=tiny_machine,
            n_processors=2, target_accesses=100, runtime="mp",
            controller="threshold")
        with pytest.raises(ConfigError):
            run_experiment(config)
