"""Configuration for one serving-layer run.

A :class:`ServeConfig` is to :func:`repro.serve.frontend.run_serve`
what :class:`~repro.harness.experiment.ExperimentConfig` is to
``run_experiment``: a frozen, hashable record of everything needed to
reproduce the run bit-for-bit on the sim runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.control import SERVE_DEFAULTS, available_controllers
from repro.errors import ConfigError
from repro.hardware.machines import ALTIX_350, MachineSpec
from repro.harness.driver import validate as validate_run
from repro.obs.telemetry import SLOSpec

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything needed to reproduce one serve run."""

    # -- shard geometry ----------------------------------------------------
    #: Buffer-pool shards; pages route to ``stable_hash(page) % n_shards``.
    n_shards: int = 4
    #: Per-shard pool capacity in pages; None sizes each shard to its
    #: routed working set plus slack (miss-free, as the paper's
    #: scalability runs), a smaller value forces evictions.
    shard_buffer_pages: Optional[int] = None
    #: The wrapper each shard runs (Table I name; pgDist is excluded —
    #: sharding *is* the distribution here).
    system: str = "pgBat"
    policy_name: Optional[str] = None
    queue_size: int = SERVE_DEFAULTS.queue_size
    batch_threshold: int = SERVE_DEFAULTS.batch_threshold
    #: Attach a control-plane controller ("threshold") to every shard
    #: (one instance per shard); None = knobs stay fixed.
    controller: Optional[str] = None

    # -- tenancy -----------------------------------------------------------
    n_tenants: int = 8
    #: Simulated client sessions per tenant (each is one thread).
    sessions_per_tenant: int = 2
    #: Private page space per tenant (space ``tenantNN``).
    pages_per_tenant: int = 128
    #: Shared hot set (space ``hot``) — index-root-like pages every
    #: tenant touches, forcing cross-tenant collisions on their shards.
    hot_pages: int = 16
    #: Probability an access goes to the shared hot set.
    hot_fraction: float = 0.1
    #: Zipf theta over each tenant's private pages (the sweep's "skew"
    #: axis). Each tenant gets its own rank permutation, so tenants
    #: disagree about which private pages are hot.
    skew: float = 0.8
    #: Zipf theta over the shared hot set.
    hot_skew: float = 0.6

    # -- admission control -------------------------------------------------
    #: Token-bucket quota per tenant, in requests per simulated second;
    #: None (or 0) = unlimited.
    quota_per_sec: Optional[float] = None
    #: Token-bucket burst capacity (tokens).
    quota_burst: int = 8
    #: Per-shard in-flight request ceiling; sessions back off while a
    #: shard is at its depth limit. 0 = unlimited.
    max_queue_depth: int = 32

    # -- load --------------------------------------------------------------
    #: Pages touched by one client request (a small query).
    pages_per_request: int = 4
    #: Stop once this many requests completed across all tenants.
    target_requests: int = 2_000
    #: Client think time between requests (off-CPU), microseconds.
    think_time_us: float = 0.0

    # -- observability -----------------------------------------------------
    #: Windowed-telemetry sampling cadence, in simulated (or native
    #: wall-clock) microseconds. 0 disables the sampler entirely — the
    #: default, so pre-telemetry byte-determinism contracts and perf
    #: baselines are untouched unless a run opts in.
    telemetry_interval_us: float = 0.0
    #: Per-tenant SLO: at least ``1 - slo_error_budget`` of completed
    #: requests must finish within this many milliseconds.
    slo_p99_ms: float = 2.0
    slo_error_budget: float = 0.01
    #: At most this fraction of admitted requests may be throttled.
    slo_throttle_rate: float = 0.10
    #: Give every shard its own simulated disk array — misses pay real
    #: disk reads (and emit request-linked disk-I/O spans) instead of
    #: being metadata-only. Sim runtime only.
    use_disk: bool = False

    # -- execution ---------------------------------------------------------
    machine: MachineSpec = ALTIX_350
    n_processors: int = 8
    seed: int = 42
    #: "sim" (deterministic, byte-identical records) or "native"
    #: (real OS threads, wall-clock — a host micro-benchmark).
    runtime: str = "sim"
    #: Sim-time safety net; under the native runtime the same number
    #: bounds wall-clock microseconds (the join-deadline deadlock guard).
    max_sim_time_us: float = 600_000_000.0

    def with_params(self, **overrides) -> "ServeConfig":
        return replace(self, **overrides)

    @property
    def n_sessions(self) -> int:
        return self.n_tenants * self.sessions_per_tenant

    def slo_spec(self) -> SLOSpec:
        """The per-tenant SLO this config declares."""
        return SLOSpec(p99_ms=self.slo_p99_ms,
                       error_budget=self.slo_error_budget,
                       throttle_rate=self.slo_throttle_rate)

    def validate(self, checker=None) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad geometry, or
        on a ``checker`` the configured runtime cannot host."""
        validate_run(self, checker)
        if self.n_shards < 1:
            raise ConfigError(f"need >= 1 shard, got {self.n_shards}")
        if self.n_tenants < 1:
            raise ConfigError(f"need >= 1 tenant, got {self.n_tenants}")
        if self.sessions_per_tenant < 1:
            raise ConfigError(
                f"need >= 1 session per tenant, got "
                f"{self.sessions_per_tenant}")
        if self.pages_per_tenant < 1:
            raise ConfigError(
                f"need >= 1 page per tenant, got {self.pages_per_tenant}")
        if self.hot_pages < 0:
            raise ConfigError(f"hot_pages must be >= 0, got {self.hot_pages}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}")
        if self.hot_fraction > 0.0 and self.hot_pages == 0:
            raise ConfigError(
                "hot_fraction > 0 needs a non-empty hot set")
        if self.skew < 0 or self.hot_skew < 0:
            raise ConfigError("zipf skews must be >= 0")
        if self.quota_per_sec is not None and self.quota_per_sec < 0:
            raise ConfigError(
                f"quota_per_sec must be >= 0, got {self.quota_per_sec}")
        if self.quota_burst < 1:
            raise ConfigError(
                f"quota_burst must be >= 1, got {self.quota_burst}")
        if self.max_queue_depth < 0:
            raise ConfigError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}")
        if self.pages_per_request < 1:
            raise ConfigError(
                f"pages_per_request must be >= 1, got "
                f"{self.pages_per_request}")
        if self.target_requests < 1:
            raise ConfigError(
                f"target_requests must be >= 1, got {self.target_requests}")
        if self.system.lower() == "pgdist":
            raise ConfigError(
                "pgDist partitions one pool internally; the serve layer "
                "shards across pools — pick a Table I system per shard")
        if (self.controller is not None
                and self.controller not in available_controllers()):
            raise ConfigError(
                f"unknown controller {self.controller!r}; available: "
                f"{', '.join(available_controllers())}")
        if self.telemetry_interval_us < 0:
            raise ConfigError(
                f"telemetry_interval_us must be >= 0, got "
                f"{self.telemetry_interval_us}")
        try:
            self.slo_spec().validate()
        except ValueError as exc:
            raise ConfigError(f"bad SLO spec: {exc}") from exc
        if self.use_disk and self.runtime != "sim":
            raise ConfigError(
                "use_disk attaches the simulated disk array; use "
                "runtime='sim' for disk-backed serve runs")
