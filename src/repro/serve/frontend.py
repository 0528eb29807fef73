"""The request front-end: sessions × tenants × shards, both runtimes.

:class:`ServeFrontend` assembles the shards, tenants and client
sessions of one :class:`~repro.serve.config.ServeConfig` and runs them
to the request target. Each session is one thread (a simulated
:class:`~repro.simcore.cpu.CpuBoundThread`, or a real OS thread under
``runtime="native"``) driving the same generator body — the identical
bridging trick the experiment runner uses (docs/architecture.md §10).

The request path, per client request:

1. **admission** — take a token from the tenant's bucket; if none is
   available, sleep (off-CPU) until the bucket grants one and count
   the request throttled;
2. **routing** — every page of the request is hash-routed to its
   shard; the request is *pinned* to its first page's shard for
   depth accounting (one queue-depth slot per request);
3. **backpressure** — while the home shard is at its depth limit,
   back off with a growing off-CPU sleep and count the request
   backpressured (once);
4. **execution** — access each page through its shard's buffer
   manager; hits ride the shard's own BP-Wrapper queues, misses take
   that shard's replacement lock only;
5. **accounting** — response time lands in the tenant's latency
   record, hits/accesses in both tenant and shard counters.

Under the sim runtime the whole run is deterministic: two runs of the
same config produce byte-identical :meth:`ServeResult.to_dict` JSON,
which CI enforces (the ``serve-smoke`` job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.bufmgr.tags import PageId
from repro.control import bp_kwargs
from repro.core.bpwrapper import ThreadSlot
from repro.harness.driver import Run
from repro.harness.driver import run as drive
from repro.harness.report import ResultRecord, derived, reported
from repro.obs.telemetry import TelemetrySampler, TraceContext, evaluate_slo
from repro.serve.config import ServeConfig
from repro.serve.shard import BufferShard, shard_of
from repro.serve.tenants import HOT_SPACE, TenantSpec, TenantState
from repro.simcore.rng import split_seed, stream_rng
from repro.sync.stats import LockStats

__all__ = ["ServeFrontend", "ServeResult", "run_serve", "serve_grid"]

#: Backpressure retries before a session gives up on a request slot
#: and proceeds anyway — a liveness valve, not an admission bypass:
#: it only opens after ~2.4 simulated seconds of a shard sitting at
#: its depth limit, which a finite sim run cannot sustain unless every
#: session is parked on the same shard.
_MAX_BACKOFF_ATTEMPTS = 1_000

#: Backpressure retry sleep (off-CPU); attempt ``n`` sleeps
#: ``min(n, 12)`` times this.
_BACKOFF_US = 200.0


@dataclass(frozen=True)
class ServeResult(ResultRecord):
    """Measurements of one serve run; fields are declared once, in
    record order."""

    CONFIG_KEYS = ("n_shards", "n_tenants", "sessions_per_tenant", "system",
                   ("policy", "policy_name"), "queue_size",
                   "batch_threshold", "pages_per_tenant", "hot_pages",
                   "hot_fraction", "skew", "hot_skew", "quota_per_sec",
                   "quota_burst", "max_queue_depth", "pages_per_request",
                   "target_requests", "n_processors", "machine", "seed")
    DERIVED = dict(
        ResultRecord.DERIVED,
        # Pool-wide (all shards) contentions per million accesses.
        contention_per_million=lambda r: LockStats(contentions=sum(
            shard["lock_contentions"] for shard in r.shard_records)
        ).contentions_per_million(r.accesses),
        # Every tenant inside both its latency and throttle budgets.
        slo_ok=lambda r: all(record["ok"] for record in r.slo_records))

    config: ServeConfig
    #: Completed client requests inside the measured run.
    requests: int
    accesses: int
    hits: int
    hit_ratio: float = derived(digits=6)
    elapsed_us: float = reported(digits=3)
    requests_per_sec: float = derived(digits=3)
    contention_per_million: float = derived(digits=3)
    shard_records: List[dict] = reported("shards")
    tenant_records: List[dict] = reported("tenants")
    #: One :func:`~repro.obs.telemetry.evaluate_slo` record per tenant.
    slo_records: List[dict] = reported("slo")
    slo_ok: bool = derived()
    #: Snapshot of the obs registry when the run was observed.
    metrics: Optional[dict] = None
    #: :meth:`~repro.obs.telemetry.TelemetrySampler.to_dict` document
    #: when the run sampled windowed telemetry (``timeseries.json``);
    #: kept out of :meth:`to_dict` so serve.json stays compact.
    telemetry: Optional[dict] = reported("", default=None)

    @property
    def worst_latency_burn(self) -> float:
        return max((r["latency_burn_rate"] for r in self.slo_records),
                   default=0.0)

    @property
    def worst_p99_ms(self) -> float:
        return max((r["achieved_p99_ms"] for r in self.slo_records),
                   default=0.0)

    def summary(self) -> str:
        config = self.config
        slo = "ok" if self.slo_ok else "VIOLATED"
        return (f"{config.system:9s} {config.n_shards}s "
                f"{config.n_tenants:2d}t θ{config.skew:<4g} "
                f"req/s={self.requests_per_sec:10.1f} "
                f"cont/M={self.contention_per_million:10.1f} "
                f"hit={self.hit_ratio:6.3f} slo={slo}")

    def to_dict(self) -> dict:
        """A JSON-able record; byte-stable for a given sim config."""
        record = super().to_dict()
        if self.config.controller:
            # Per-shard decision summaries live in "shards" (see
            # BufferShard.to_record); this is the run-level switch.
            record["controller"] = self.config.controller
        return record


class ServeFrontend:
    """Builds and runs one serve configuration; owns all run state."""

    def __init__(self, config: ServeConfig, observer=None,
                 checker=None) -> None:
        config.validate(checker)
        self.config = config
        self.observer = observer
        self.checker = checker
        self.shards: List[BufferShard] = []
        self.tenants: List[TenantState] = []
        #: Windowed-telemetry container; created by the build when
        #: ``config.telemetry_interval_us > 0``, else stays None.
        self.sampler: Optional[TelemetrySampler] = None
        self._run: Optional[Run] = None
        self._result: Optional[ServeResult] = None

    # -- routing -----------------------------------------------------------

    def shard_for(self, page: PageId) -> int:
        return shard_of(page, self.config.n_shards)

    # -- construction ------------------------------------------------------

    def _tenant_specs(self) -> List[TenantSpec]:
        config = self.config
        return [
            TenantSpec(index=index, name=f"tenant{index:02d}",
                       pages=config.pages_per_tenant, skew=config.skew,
                       quota_per_sec=(config.quota_per_sec or None),
                       quota_burst=config.quota_burst)
            for index in range(config.n_tenants)
        ]

    def all_pages(self) -> List[PageId]:
        """The whole served page space (private spaces + hot set)."""
        pages: List[PageId] = []
        for tenant in self.tenants:
            pages.extend(tenant.private_pages())
        pages.extend(PageId(HOT_SPACE, block)
                     for block in range(self.config.hot_pages))
        return pages

    def _build(self, run: Run) -> None:
        config = self.config
        runtime = run.runtime
        self._run = run
        run.shared["served"] = 0
        self.tenants = [
            TenantState(spec, config.hot_pages, config.hot_fraction,
                        config.hot_skew, mutex=runtime.mutex())
            for spec in self._tenant_specs()
        ]
        # Hash-split the page space to size and pre-warm each shard.
        routed: Dict[int, List[PageId]] = {
            shard_id: [] for shard_id in range(config.n_shards)}
        for page in self.all_pages():
            routed[self.shard_for(page)].append(page)
        for shard_id in range(config.n_shards):
            working_set = routed[shard_id]
            capacity = config.shard_buffer_pages
            if capacity is None:
                capacity = len(working_set) + 16
            capacity = max(16, capacity)
            shard = BufferShard(
                runtime, shard_id, config.system, capacity,
                config.machine, **bp_kwargs(config),
                disk=run.create_disk(
                    split_seed(config.seed, "serve-disk", shard_id)))
            run.adopt(shard.build)
            shard.admit_mutex = runtime.mutex()
            shard.warm_with(working_set[:capacity])
            self.shards.append(shard)
        if config.telemetry_interval_us > 0:
            self.sampler = TelemetrySampler(config.telemetry_interval_us)
            run.start_daemon("telemetry-sampler",
                             config.telemetry_interval_us,
                             self._sampler_body)

    # -- the session body (runtime-agnostic) -------------------------------

    def _session(self, run: Run, thread, session_index: int
                 ) -> Generator[object, None, None]:
        """The driver's body factory: session ``session_index`` with
        one private BP-Wrapper queue per shard."""
        tenant = self.tenants[session_index % self.config.n_tenants]
        slots = {shard.shard_id:
                 shard.handler.new_slot(thread, session_index)
                 for shard in self.shards}
        return self._session_body(run.runtime, tenant, slots, session_index)

    def _session_body(self, runtime, tenant: TenantState,
                      slots: Dict[int, ThreadSlot], session_index: int
                      ) -> Generator[object, None, None]:
        config = self.config
        shared = self._run.shared
        thread = slots[0].thread
        observer = self.observer
        trace = observer.trace if observer is not None else None
        sampler = self.sampler
        tenant_name = tenant.spec.name
        page_rng = stream_rng(config.seed, "serve-pages", session_index)
        work_rng = stream_rng(config.seed, "serve-work", session_index)
        user_work_us = config.machine.costs.user_work_us
        quantum_us = config.machine.costs.scheduler_quantum_us
        # The per-access settle step: the sim thread's maybe_yield; a
        # native thread keeps no simulated time and has none.
        maybe_yield = getattr(thread, "maybe_yield", None)
        stagger_us = self._run.stagger_us("serve-stagger", session_index)
        if stagger_us > 0:
            yield from thread.sleep_blocked(stagger_us)

        sequence = 0
        while not shared["stop"]:
            pages = tenant.next_pages(page_rng, config.pages_per_request)
            home = self.shards[self.shard_for(pages[0])]
            # Request-scoped trace context: derived (not counted) ids,
            # bound to this thread so every lock-wait/miss/disk hook the
            # observer sees below carries the same request id.
            ctx = None
            if observer is not None:
                ctx = TraceContext.derive(config.seed, tenant_name,
                                          session_index, sequence)
                observer.push_context(thread.name, ctx)
            sequence += 1
            request_start = runtime.now
            # 1. token-bucket admission (per tenant).
            wait_us = tenant.bucket.reserve(runtime.now)
            if wait_us > 0:
                tenant.throttled += 1
                tenant.throttle_wait_us += wait_us
                yield from thread.sleep_blocked(wait_us)
                if trace is not None:
                    trace.span("admission-wait", "serve", thread.name,
                               request_start, runtime.now,
                               args={**ctx.as_args(),
                                     "shard": home.shard_id})
            # 2. queue-depth backpressure (per home shard).
            if config.max_queue_depth > 0:
                attempts = 0
                queue_start = runtime.now
                while home.in_flight >= config.max_queue_depth:
                    if attempts == 0:
                        tenant.backpressured += 1
                        home.backpressure_events += 1
                    attempts += 1
                    if attempts > _MAX_BACKOFF_ATTEMPTS:
                        break
                    yield from thread.sleep_blocked(
                        _BACKOFF_US * min(attempts, 12))
                if attempts > 0 and trace is not None:
                    trace.span("shard-queue", "serve", thread.name,
                               queue_start, runtime.now,
                               args={**ctx.as_args(),
                                     "shard": home.shard_id})
            home.admit()
            tenant.admitted += 1
            tenant.shard_requests[home.shard_id] = (
                tenant.shard_requests.get(home.shard_id, 0) + 1)
            started = runtime.now
            hits = 0
            try:
                for page in pages:
                    # random.uniform(0.75, 1.25)'s own formula.
                    thread.pending_us += (
                        user_work_us * (0.75 + 0.5 * work_rng.random()))
                    shard = self.shards[self.shard_for(page)]
                    hit = shard.manager.request(slots[shard.shard_id], page)
                    if hit is not True:  # a continuation: it may wait
                        hit = yield from hit
                    hits += 1 if hit else 0
                    if maybe_yield is not None:
                        yield from maybe_yield(quantum_us)
            finally:
                home.done()
            completed_us = runtime.now
            latency_us = completed_us - started
            if trace is not None:
                trace.span("request", "serve", thread.name,
                           request_start, completed_us,
                           args={**ctx.as_args(), "shard": home.shard_id,
                                 "pages": len(pages), "hits": hits})
            if observer is not None:
                observer.pop_context(thread.name)
            tenant.completed += 1
            tenant.accesses += len(pages)
            tenant.hits += hits
            tenant.latencies_us.append(latency_us)
            if sampler is not None:
                sampler.latency(tenant_name).record(completed_us,
                                                    latency_us)
            shared["served"] += 1
            if shared["served"] >= config.target_requests:
                shared["stop"] = True
            if config.think_time_us > 0:
                yield from thread.sleep_blocked(config.think_time_us)
            yield from thread.yield_cpu()
        # Drain this session's queued history so every recorded access
        # reaches its shard's algorithm before the run is scored.
        for shard_id, slot in slots.items():
            yield from self.shards[shard_id].handler.flush(slot)

    # -- windowed telemetry ------------------------------------------------

    def _take_sample(self, now_us: float) -> None:
        """One cadence tick: per-shard gauges into the time series."""
        sampler = self.sampler
        sampler.samples_taken += 1
        sampler.series("served.requests", "req").sample(
            now_us, self._run.shared["served"])
        for shard in self.shards:
            prefix = f"shard{shard.shard_id}"
            stats = shard.manager.stats
            lock = shard.handler.lock_stats()
            sampler.series(f"{prefix}.queue_depth", "req").sample(
                now_us, shard.in_flight)
            sampler.series(f"{prefix}.contention_rate", "ratio").sample(
                now_us, round(lock.contention_rate, 6))
            hit_ratio = (stats.hits / stats.accesses
                         if stats.accesses else 0.0)
            sampler.series(f"{prefix}.hit_ratio", "ratio").sample(
                now_us, round(hit_ratio, 6))
            if shard.control.controller is not None:
                # Controlled runs get the live knob as a series so the
                # telemetry page shows the adapter walking it.
                sampler.series(f"{prefix}.batch_threshold",
                               "entries").sample(
                    now_us, shard.control.batch_threshold)

    def _sampler_body(self, runtime,
                      thread) -> Generator[object, None, None]:
        """The sampler daemon: one thread waking on the fixed cadence.

        Under the simulator it is a regular simulated thread, so
        sampling is part of the deterministic event order — two
        same-seed runs take identical samples at identical sim times.
        Under native the cadence is wall-clock, best effort (a host
        micro-benchmark, not a deterministic record).
        """
        interval_us = self.config.telemetry_interval_us
        shared = self._run.shared
        while not shared["stop"]:
            yield from thread.sleep_blocked(interval_us)
            self._take_sample(runtime.now)

    # -- execution ---------------------------------------------------------

    def run(self) -> ServeResult:
        if self._result is None:
            config = self.config
            specs = self._tenant_specs()
            names = [f"session-{specs[index % config.n_tenants].name}-"
                     f"{index // config.n_tenants}"
                     for index in range(config.n_sessions)]
            run = drive(config, self._build, names, self._session,
                        observer=self.observer, checker=self.checker)
            self._result = self._finalize(run)
        return self._result

    def _finalize(self, run: Run) -> ServeResult:
        spec = self.config.slo_spec()
        slo_records = [
            evaluate_slo(spec, tenant.spec.name, tenant.latencies_us,
                         tenant.admitted, tenant.throttled)
            for tenant in self.tenants
        ]
        shard_records = [shard.to_record() for shard in self.shards]
        self._publish_metrics(shard_records, slo_records)
        stats = run.access_stats()
        return ServeResult(
            config=self.config,
            requests=sum(t.completed for t in self.tenants),
            accesses=stats.accesses,
            hits=stats.hits,
            elapsed_us=run.elapsed_us,
            shard_records=shard_records,
            tenant_records=[t.to_record() for t in self.tenants],
            metrics=run.metrics(),
            slo_records=slo_records,
            telemetry=(self.sampler.to_dict()
                       if self.sampler is not None else None),
        )

    def _publish_metrics(self, shard_records: List[dict],
                         slo_records: List[dict]) -> None:
        """Fold serve counters into the obs registry (if observing).

        Lock wait/hold/contention metrics stream in live through the
        observer's lock hooks (one family per shard-scoped lock name);
        the admission/latency quantities only exist up here, so they
        are published at finalize time under the ``serve.*`` namespace.
        """
        observer = self.observer
        if observer is None or observer.metrics is None:
            return
        registry = observer.metrics
        observer.publish_trace_drops()
        for record in shard_records:
            prefix = f"serve.shard{record['shard']}"
            registry.counter(f"{prefix}.accesses").inc(record["accesses"])
            registry.counter(f"{prefix}.hits").inc(record["hits"])
            registry.counter(f"{prefix}.lock_contentions").inc(
                record["lock_contentions"])
            registry.counter(f"{prefix}.backpressure_events").inc(
                record["backpressure_events"])
            registry.gauge(f"{prefix}.peak_in_flight").set(
                record["peak_in_flight"])
            registry.gauge(f"{prefix}.contention_rate").set(
                record["contention_rate"])
        for tenant in self.tenants:
            prefix = f"serve.tenant.{tenant.spec.name}"
            registry.counter(f"{prefix}.admitted").inc(tenant.admitted)
            registry.counter(f"{prefix}.throttled").inc(tenant.throttled)
            registry.counter(f"{prefix}.backpressured").inc(
                tenant.backpressured)
            latency = registry.histogram(f"{prefix}.latency_us")
            for value in tenant.latencies_us:
                latency.record(value)
        for record in slo_records:
            prefix = f"serve.slo.{record['tenant']}"
            registry.gauge(f"{prefix}.latency_burn_rate").set(
                record["latency_burn_rate"])
            registry.gauge(f"{prefix}.throttle_burn_rate").set(
                record["throttle_burn_rate"])
            registry.gauge(f"{prefix}.ok").set(
                1.0 if record["ok"] else 0.0)


def run_serve(config: ServeConfig, observer=None,
              checker=None) -> ServeResult:
    """Execute one serve configuration and return its measurements."""
    return ServeFrontend(config, observer=observer, checker=checker).run()


def serve_grid(base: ServeConfig, shards_list, tenants_list, skews,
               observer_factory=None, checker_factory=None,
               progress=None) -> dict:
    """Sweep shards × tenants × skew; return one JSON-able grid record.

    ``observer_factory`` / ``checker_factory`` (zero-arg callables) are
    invoked per cell so observations never interleave between cells.
    ``progress`` (callable) receives each cell's
    :class:`ServeResult` as it completes. The record's ``cells`` list
    is in sweep order (shards-major, then tenants, then skew) and each
    cell carries the wall-clock duration *outside* the deterministic
    record (callers that need byte-stable JSON strip nothing — wall
    time is simply not stored here).
    """
    cells = []
    results = []
    for n_shards in shards_list:
        for n_tenants in tenants_list:
            for skew in skews:
                config = base.with_params(
                    n_shards=n_shards, n_tenants=n_tenants, skew=skew)
                observer = (observer_factory()
                            if observer_factory is not None else None)
                checker = (checker_factory()
                           if checker_factory is not None else None)
                result = run_serve(config, observer=observer,
                                   checker=checker)
                if progress is not None:
                    progress(result)
                cells.append(result.to_dict())
                results.append(result)
    return {
        "kind": "serve-grid",
        "system": base.system,
        "runtime": base.runtime,
        "shards": list(shards_list),
        "tenants": list(tenants_list),
        "skews": list(skews),
        "sessions_per_tenant": base.sessions_per_tenant,
        "pages_per_tenant": base.pages_per_tenant,
        "hot_pages": base.hot_pages,
        "hot_fraction": base.hot_fraction,
        "quota_per_sec": base.quota_per_sec,
        "max_queue_depth": base.max_queue_depth,
        "target_requests": base.target_requests,
        "seed": base.seed,
        "cells": cells,
    }
