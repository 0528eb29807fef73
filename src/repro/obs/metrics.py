"""Counters, gauges, and log-bucketed histograms for the simulator.

The paper's evaluation reports *means* (average lock holding time per
access, Fig. 2) because that is what end-of-run aggregates can offer.
Means hide exactly the behaviour BP-Wrapper targets: a handful of long
lock-holding periods (a full-queue blocking commit, a miss's eviction
under the lock) dominating many short ones. :class:`Histogram` keeps
power-of-two buckets of microsecond durations so a run can report p50
and p99 hold/wait times at a fixed, tiny memory cost, and
:class:`MetricsRegistry` collects every instrument into one
JSON-ready snapshot stored on
:class:`~repro.harness.experiment.RunResult`.

All instruments are plain Python with ``__slots__``; they are only
ever touched when an :class:`~repro.obs.observer.Observer` is
attached, so the disabled-mode simulator pays nothing for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"Counter.inc amount must be >= 0, got {amount}; "
                f"counters are monotonic — use a Gauge for levels")
        self.value += amount

    def to_dict(self) -> int:
        return self.value


class Gauge:
    """A point-in-time level; remembers the peak it ever reached.

    The peak is tracked from the first :meth:`set` — an all-negative
    gauge reports its true (negative) maximum, and a gauge that was
    never set reports ``None`` rather than a phantom peak of zero.
    """

    __slots__ = ("value", "max_value")

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def to_dict(self) -> dict:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """Log-bucketed distribution of non-negative durations.

    Bucket ``i`` counts values in ``(2**(i-1), 2**i]`` microseconds
    (bucket 0 is ``[0, 1]``); 64 buckets cover every duration the
    simulator can produce. The invariant tests rely on:
    ``sum(h.bucket_counts()) == h.count`` always holds.
    """

    __slots__ = ("_counts", "count", "total", "min_value", "max_value")

    N_BUCKETS = 64

    def __init__(self) -> None:
        self._counts: List[int] = [0] * self.N_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value = 0.0

    def record(self, value: float) -> None:
        """Add one observation (negative values clamp to 0 entirely).

        The clamp happens *before* any accumulation: a negative input
        lands in bucket 0 and contributes 0 to ``total``/``min_value``,
        so ``mean_us``/``min_us`` can never be dragged below zero by a
        caller's clock skew.
        """
        if value < 0.0:
            value = 0.0
        index = 0
        bound = 1.0
        last = self.N_BUCKETS - 1
        while value > bound and index < last:
            bound *= 2.0
            index += 1
        self._counts[index] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram in place.

        The cross-run aggregation primitive: bucket counts add
        position-wise, totals add, and the extrema widen — merging N
        per-run histograms is exactly recording their combined streams.
        """
        for index, bucket in enumerate(other._counts):
            self._counts[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.min_value is not None:
            if self.min_value is None or other.min_value < self.min_value:
                self.min_value = other.min_value
        if other.max_value > self.max_value:
            self.max_value = other.max_value

    def bucket_counts(self) -> List[int]:
        """The raw per-bucket counts (length :data:`N_BUCKETS`)."""
        return list(self._counts)

    @staticmethod
    def bucket_upper_bound(index: int) -> float:
        """Upper edge (inclusive) of bucket ``index``, in µs."""
        return float(2 ** index)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper-bound estimate of the ``p``-quantile (``0 < p <= 1``).

        Returns the upper edge of the bucket containing the quantile
        rank — an over-estimate by at most one bucket width, which is
        the precision log-bucketing buys its O(1) memory with.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"percentile fraction must be in (0, 1], "
                             f"got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(p * self.count + 0.999999))
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank:
                return self.bucket_upper_bound(index)
        return self.bucket_upper_bound(self.N_BUCKETS - 1)

    def to_dict(self) -> dict:
        """JSON-ready summary; buckets as a sparse ``{index: count}``."""
        return {
            "count": self.count,
            "sum_us": self.total,
            "min_us": self.min_value if self.min_value is not None else 0.0,
            "max_us": self.max_value,
            "mean_us": self.mean(),
            "p50_us": self.percentile(0.50) if self.count else 0.0,
            "p90_us": self.percentile(0.90) if self.count else 0.0,
            "p99_us": self.percentile(0.99) if self.count else 0.0,
            "p999_us": self.percentile(0.999) if self.count else 0.0,
            "buckets": {str(i): c for i, c in enumerate(self._counts) if c},
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Histogram":
        """Rebuild a histogram from a :meth:`to_dict` record.

        Counts, totals and extrema round-trip exactly; percentiles are
        recomputed from the buckets, so a reloaded histogram answers
        every query the live one could. This is what lets the analyzer
        merge distributions across archived run snapshots.
        """
        hist = cls()
        for key, bucket in record.get("buckets", {}).items():
            hist._counts[int(key)] = int(bucket)
        hist.count = int(record["count"])
        hist.total = float(record["sum_us"])
        if hist.count:
            hist.min_value = float(record["min_us"])
            hist.max_value = float(record["max_us"])
        return hist


class MetricsRegistry:
    """Name-keyed instruments, created on first use.

    Naming convention (dotted paths, low cardinality)::

        lock.<name>.hold_us        histogram of holding periods
        lock.<name>.wait_us        histogram of blocked-wait times
        lock.<name>.queue_depth    gauge of blocked waiters
        thread.<name>.batch_size   histogram of committed batch sizes
        cpu.ready_depth            gauge of threads awaiting a CPU
        io.reads / io.writes       counters
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> dict:
        """A JSON-serializable snapshot of every instrument.

        **Sorted-key guarantee:** each of the three maps is emitted
        sorted by instrument name, independent of creation order.
        Downstream byte-determinism contracts (serve.json, the
        OpenMetrics export, CI ``cmp`` gates) rely on this; it is
        asserted by ``tests/test_obs.py``.
        """
        return {
            "counters": {name: self._counters[name].to_dict()
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].to_dict()
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].to_dict()
                           for name in sorted(self._histograms)},
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` document into the live registry.

        The cross-process aggregation primitive (mp workers return
        snapshots in their reports; the finalize merges them): counters
        add, gauges widen to the maximum value/peak seen across inputs,
        histograms merge bucket-wise via :meth:`Histogram.merge`.
        Merging is order-independent, so per-worker snapshots can be
        folded in any sequence and still produce identical output.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, entry in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            incoming = float(entry["value"])
            if gauge.max_value is None or incoming >= gauge.value:
                gauge.set(incoming)
            peak = entry.get("max")
            if peak is not None and (gauge.max_value is None
                                     or peak > gauge.max_value):
                gauge.max_value = float(peak)
        for name, entry in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(Histogram.from_dict(entry))
