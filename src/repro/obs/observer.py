"""The hook facade between the simulator and the observability layer.

Instrumented components (:class:`~repro.sync.locks.SimLock`, the
processor pool, the buffer manager, the BP-Wrapper handlers) never
import tracing or metrics code. They read ``sim.observer`` — ``None``
by default — and only when it is set call the ``on_*`` hooks below.
The disabled-mode cost is therefore one attribute load and an ``is
None`` test on paths that already dispatch simulator events, and
*zero* on the charge/spend fast path, which is left untouched.

:class:`Observer` fans each hook out to an optional
:class:`~repro.obs.trace.TraceRecorder` (timeline) and an optional
:class:`~repro.obs.metrics.MetricsRegistry` (aggregates); either can
be omitted to halve the recording cost when only one view is wanted.

**Request-scoped context.** A caller that knows which client request a
thread is currently serving (the serving front-end) can
:meth:`~Observer.push_context` a
:class:`~repro.obs.telemetry.TraceContext` keyed by thread name.
While set, every trace record the hooks emit for that thread — lock
waits, contention instants, page misses, disk I/O — carries the
context's ``{trace, req, tenant}`` args, linking the whole causal
chain of one request under one request id in the Chrome trace. The
instrumented components stay oblivious: only this facade consults the
context map, and only when a trace recorder is attached.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TraceContext
from repro.obs.trace import TraceRecorder

__all__ = ["Observer"]


class Observer:
    """Receives instrumentation hooks; fans out to trace and metrics."""

    __slots__ = ("trace", "metrics", "_contexts")

    def __init__(self, trace: Optional[TraceRecorder] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if trace is None and metrics is None:
            raise ValueError(
                "Observer needs a TraceRecorder, a MetricsRegistry, or "
                "both; to disable observability leave sim.observer as "
                "None instead")
        self.trace = trace
        self.metrics = metrics
        self._contexts: Dict[str, TraceContext] = {}

    # -- request-scoped trace context -------------------------------------

    def push_context(self, thread_name: str, ctx: TraceContext) -> None:
        """Bind ``ctx`` to ``thread_name`` until :meth:`pop_context`.

        Single dict assignment (atomic under the GIL), so native-runtime
        session threads may call this on the raw Observer directly.
        """
        self._contexts[thread_name] = ctx

    def pop_context(self, thread_name: str) -> None:
        self._contexts.pop(thread_name, None)

    def context_args(self, thread_name: str) -> Optional[dict]:
        """The ``{trace, req, tenant}`` fragment for a thread, if any."""
        ctx = self._contexts.get(thread_name)
        return ctx.as_args() if ctx is not None else None

    def publish_trace_drops(self) -> None:
        """Count ring-buffer overflow as ``trace.dropped_records``.

        Surfaces it loudly: a truncated trace is easy to misread as a
        quiet run. Idempotent across repeated finalizes (the counter is
        set to the recorder's total, not incremented by it).
        """
        if self.metrics is not None and self.trace is not None:
            counter = self.metrics.counter("trace.dropped_records")
            counter.inc(max(0, self.trace.dropped - counter.value))

    # -- lock hooks (SimLock) ---------------------------------------------

    def on_lock_wait(self, lock_name: str, thread_name: str,
                     start_us: float, end_us: float) -> None:
        """A blocked acquire finished waiting (contention resolved)."""
        if self.trace is not None:
            self.trace.span(f"wait:{lock_name}", "lock", thread_name,
                            start_us, end_us,
                            args=self.context_args(thread_name))
        if self.metrics is not None:
            self.metrics.histogram(f"lock.{lock_name}.wait_us").record(
                end_us - start_us)

    def on_lock_contention(self, lock_name: str, thread_name: str,
                           ts_us: float, queue_depth: int) -> None:
        """An acquire found the lock busy and is about to block."""
        if self.trace is not None:
            self.trace.instant(f"contention:{lock_name}", "lock",
                               thread_name, ts_us,
                               args=self.context_args(thread_name))
            self.trace.counter(f"queue:{lock_name}", thread_name, ts_us,
                               queue_depth)
        if self.metrics is not None:
            self.metrics.counter(f"lock.{lock_name}.contentions").inc()
            self.metrics.gauge(f"lock.{lock_name}.queue_depth").set(
                queue_depth)

    def on_lock_hold(self, lock_name: str, thread_name: str,
                     start_us: float, end_us: float,
                     queue_depth: int) -> None:
        """The lock was released after a holding period."""
        if self.trace is not None:
            self.trace.span(f"hold:{lock_name}", "lock", thread_name,
                            start_us, end_us)
            self.trace.counter(f"queue:{lock_name}", thread_name, end_us,
                               queue_depth)
        if self.metrics is not None:
            self.metrics.histogram(f"lock.{lock_name}.hold_us").record(
                end_us - start_us)
            self.metrics.gauge(f"lock.{lock_name}.queue_depth").set(
                queue_depth)

    def on_try_lock_failure(self, lock_name: str, thread_name: str,
                            ts_us: float) -> None:
        """A non-blocking ``TryLock`` found the lock busy."""
        if self.trace is not None:
            self.trace.instant(f"trylock-miss:{lock_name}", "lock",
                               thread_name, ts_us)
        if self.metrics is not None:
            self.metrics.counter(f"lock.{lock_name}.try_failures").inc()

    # -- BP-Wrapper hooks (handlers) --------------------------------------

    def on_batch_commit(self, thread_name: str, lock_name: str,
                        start_us: float, end_us: float, batch_size: int,
                        blocking: bool) -> None:
        """A queued batch was replayed into the algorithm under the lock."""
        if self.trace is not None:
            self.trace.span("batch-commit", "bpwrapper", thread_name,
                            start_us, end_us,
                            args={"batch": batch_size, "lock": lock_name,
                                  "blocking": blocking})
        if self.metrics is not None:
            self.metrics.histogram(
                f"thread.{thread_name}.batch_size").record(batch_size)
            self.metrics.counter("bpwrapper.batch_commits").inc()
            if blocking:
                self.metrics.counter("bpwrapper.blocking_commits").inc()

    def on_miss_commit(self, thread_name: str, lock_name: str,
                       ts_us: float, batch_size: int) -> None:
        """Queued history committed on the miss path (Fig. 4's
        ``replacement_for_page_miss``)."""
        if self.trace is not None:
            self.trace.instant("miss-commit", "bpwrapper", thread_name,
                               ts_us, args={"batch": batch_size,
                                            "lock": lock_name})
        if self.metrics is not None and batch_size > 0:
            self.metrics.histogram(
                f"thread.{thread_name}.batch_size").record(batch_size)

    # -- control-plane hooks (controllers) --------------------------------

    def on_control_decision(self, pool_name: str, knob: str, old, new,
                            ts_us: float, reason: str) -> None:
        """A controller retuned one of a pool's knobs."""
        if self.trace is not None:
            self.trace.instant(f"control:{knob}", "control", pool_name,
                               ts_us, args={"old": old, "new": new,
                                            "reason": reason})
        if self.metrics is not None:
            self.metrics.counter("control.decisions").inc()
            self.metrics.gauge(f"control.{pool_name}.{knob}").set(new)

    # -- buffer-manager hooks ---------------------------------------------

    def on_page_miss(self, thread_name: str, ts_us: float) -> None:
        if self.trace is not None:
            self.trace.instant("page-miss", "bufmgr", thread_name, ts_us,
                               args=self.context_args(thread_name))
        if self.metrics is not None:
            self.metrics.counter("bufmgr.misses").inc()

    def on_disk_io(self, thread_name: str, kind: str, start_us: float,
                   end_us: float) -> None:
        """One disk operation; ``kind`` is ``read`` or ``write-back``."""
        if self.trace is not None:
            self.trace.span(f"disk-{kind}", "io", thread_name, start_us,
                            end_us, args=self.context_args(thread_name))
        if self.metrics is not None:
            self.metrics.counter(f"io.{kind}s").inc()
            self.metrics.histogram(f"io.{kind}_us").record(
                end_us - start_us)

    # -- scheduler hooks (ProcessorPool / CpuBoundThread) -----------------

    def on_dispatch(self, ready_depth: int, ts_us: float) -> None:
        """A thread was dispatched onto a processor."""
        if self.metrics is not None:
            self.metrics.counter("cpu.dispatches").inc()
            self.metrics.gauge("cpu.ready_depth").set(ready_depth)

    def on_thread_block(self, thread_name: str, start_us: float,
                        end_us: float) -> None:
        """A thread was blocked off-CPU from ``start_us`` to ``end_us``."""
        if self.trace is not None:
            self.trace.span("blocked", "sched", thread_name, start_us,
                            end_us)
        if self.metrics is not None:
            self.metrics.histogram("sched.blocked_us").record(
                end_us - start_us)
