"""Engine metrics: counters, histograms and gauges for the engine.

The reproduction uses metrics in three ways:

* tests assert structural facts (jobs, task attempts and retries,
  records read);
* benchmarks and the per-run report read job, task and record counts
  alongside wall-clock time;
* the observability layer (:mod:`repro.obs`) summarizes distributions —
  task and job durations, neighbour batch sizes — as percentile
  summaries in the per-run report.

Counters accumulate, histograms record individual observations (so
snapshots can diff them), gauges hold the latest value.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method but works on plain
    sequences without an array round-trip.  A single sample is every
    percentile of itself; tied values interpolate to the tie.

    Raises:
        ValueError: on an empty sequence or ``q`` outside [0, 100].
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot take a percentile of zero samples")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] + (data[high] - data[low]) * fraction


@dataclass(frozen=True)
class HistogramSummary:
    """Percentile summary of one histogram's observations.

    An empty histogram summarizes to all-zero statistics with
    ``count == 0`` (reports render it as "no samples" instead of
    crashing mid-run).
    """

    count: int
    minimum: float
    maximum: float
    mean: float
    p50: float
    p90: float
    p99: float
    #: p95 and the population standard deviation; they default so
    #: older positional constructions (and pickles) keep working.
    p95: float = 0.0
    stddev: float = 0.0

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "HistogramSummary":
        data = [float(v) for v in values]
        if not data:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean = sum(data) / len(data)
        variance = sum((v - mean) ** 2 for v in data) / len(data)
        return cls(
            count=len(data),
            minimum=min(data),
            maximum=max(data),
            mean=mean,
            p50=percentile(data, 50.0),
            p90=percentile(data, 90.0),
            p99=percentile(data, 99.0),
            p95=percentile(data, 95.0),
            stddev=math.sqrt(variance),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p95": self.p95,
            "p99": self.p99,
            "stddev": self.stddev,
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable snapshot of all metrics at a point in time."""

    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def get_gauge(self, name: str) -> float:
        return self.gauges.get(name, 0.0)

    def histogram(self, name: str) -> Tuple[float, ...]:
        return self.histograms.get(name, ())

    def summary(self, name: str) -> HistogramSummary:
        return HistogramSummary.from_values(self.histogram(name))

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Metrics accumulated since ``earlier``.

        Counters subtract; histograms keep the observations appended
        since ``earlier`` (histograms are append-only, so the earlier
        snapshot's length is a prefix marker); gauges keep the current
        value (a "latest value" has no meaningful delta).  A gauge that
        exists only in ``earlier`` was deleted in between
        (``MetricsRegistry.delete_gauge``) and must not linger in the
        diff with its stale value — only gauges still present in *this*
        snapshot survive.
        """
        keys = set(self.counters) | set(earlier.counters)
        counters = {
            k: self.counters.get(k, 0.0) - earlier.counters.get(k, 0.0)
            for k in keys
        }
        histograms = {
            name: values[len(earlier.histograms.get(name, ())):]
            for name, values in self.histograms.items()
        }
        gauges = {name: value for name, value in self.gauges.items()}
        return MetricsSnapshot(counters, histograms, gauges)

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: HistogramSummary.from_values(values).to_dict()
                for name, values in self.histograms.items()
            },
            "gauges": dict(self.gauges),
        }


@dataclass(frozen=True)
class MetricsMark:
    """A point in a registry's life: its counters then, and how many
    observations each histogram held (histograms only grow)."""

    counters: Dict[str, float]
    lengths: Dict[str, int]


class MetricsRegistry:
    """Thread-safe metrics registry attached to an :class:`EngineContext`."""

    #: Counter names used by the engine itself.
    JOBS = "jobs_run"
    TASKS = "tasks_run"
    TASK_RETRIES = "task_retries"
    RECORDS_READ = "records_read"

    #: Counter names of the SQL bridge's compile cache
    #: (core.sqlbridge.compile_plan), the only plan cache there is.
    #: The names keep their ``sql.plan_cache`` prefix: the e2e benchmark
    #: and the ledger header read them.
    SQL_PLAN_CACHE_HITS = "sql.plan_cache.hits"
    SQL_PLAN_CACHE_MISSES = "sql.plan_cache.misses"
    #: entries pushed out of the bounded bridge cache by the LRU cap
    #: (lifecycle clears are not evictions).
    SQL_PLAN_CACHE_EVICTIONS = "sql.plan_cache.evictions"

    #: Counter names used by the incremental session path
    #: (UPASession.append / retire — see docs/performance.md).
    INCR_APPENDS = "incremental.appends"
    INCR_RETIRES = "incremental.retires"
    #: records whose mapped element was reused vs freshly mapped.
    INCR_RECORDS_REUSED = "incremental.records_reused"
    INCR_RECORDS_MAPPED = "incremental.records_mapped"
    #: appended-to windows a release could not continue (external table
    #: mutation, query switch).
    INCR_INVALIDATIONS = "incremental.invalidations"
    #: gauge: freshly mapped records / total records of the last
    #: incremental release (1.0 = effectively a cold run).
    INCR_DELTA_FRACTION = "incremental.delta_fraction"

    #: Counter names of the session's table registry (core.table):
    #: protected lists hashed at first sight, phase 1s released from a
    #: registered table, build_aux results read back instead of rebuilt.
    TABLE_REGISTRATIONS = "table.registrations"
    TABLE_REUSES = "table.reuses"
    AUX_REUSES = "aux.reuses"

    #: Counter of replays: identical submissions answered with an
    #: earlier release's result (DESIGN.md §5 item 10).
    RELEASE_REPLAYS = "release.replays"

    #: Histogram names used by the engine and the UPA pipeline.
    TASK_SECONDS = "task_seconds"
    JOB_SECONDS = "job_seconds"
    NEIGHBOUR_BATCH = "neighbour_batch_size"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, list] = {}
        self._gauges: Dict[str, float] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            bucket = self._histograms.get(name)
            if bucket is None:
                bucket = self._histograms[name] = []
            bucket.append(float(value))

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def delete_gauge(self, name: str) -> None:
        """Drop gauge ``name`` (no-op if absent).

        A gauge is a "latest value", and some latest values stop being
        meaningful — a per-run gauge after the run, a per-session gauge
        after the session.  Deleting it keeps it out of later
        snapshots, instead of reporting a stale reading forever.
        """
        with self._lock:
            self._gauges.pop(name, None)

    def get(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def get_gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def histogram_summary(self, name: str) -> HistogramSummary:
        with self._lock:
            values = list(self._histograms.get(name, ()))
        return HistogramSummary.from_values(values)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(
                dict(self._counters),
                {k: tuple(v) for k, v in self._histograms.items()},
                dict(self._gauges),
            )

    def mark(self) -> MetricsMark:
        """Where the registry stands now, for :meth:`since`."""
        with self._lock:
            return MetricsMark(
                dict(self._counters),
                {k: len(v) for k, v in self._histograms.items()},
            )

    def since(self, mark: MetricsMark) -> MetricsSnapshot:
        """The metrics accumulated since ``mark``.

        Equal to ``snapshot().diff(earlier)`` for a snapshot taken where
        the mark was, but copies only the observations made since it —
        a snapshot copies every observation the registry ever took.
        """
        with self._lock:
            now = MetricsSnapshot(
                dict(self._counters),
                {
                    k: tuple(v[mark.lengths.get(k, 0):])
                    for k, v in self._histograms.items()
                },
                dict(self._gauges),
            )
        # The histograms are already cut at the mark.
        return now.diff(MetricsSnapshot(counters=mark.counters))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()

