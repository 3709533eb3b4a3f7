"""Engine metrics: the counters of the engine and the session.

Tests assert structural facts with them (jobs, tasks and retries,
records read, incremental records reused and mapped), and the
benchmarks and ``repro run --append`` read the per-release counts a
release's ``UPAResult.metrics`` carries.  Timings live in the trace's
spans, not here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable snapshot of every counter at a point in time."""

    counters: Dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """The counts accumulated since ``earlier``."""
        keys = set(self.counters) | set(earlier.counters)
        return MetricsSnapshot({
            k: self.counters.get(k, 0.0) - earlier.counters.get(k, 0.0)
            for k in keys
        })

    def to_dict(self) -> dict:
        return {"counters": dict(self.counters)}


class MetricsRegistry:
    """Thread-safe metrics registry attached to an :class:`EngineContext`."""

    #: Counter names used by the engine itself.
    JOBS = "jobs_run"
    TASKS = "tasks_run"
    TASK_RETRIES = "task_retries"
    RECORDS_READ = "records_read"

    #: Counter of the SQL bridge's compile cache
    #: (core.sqlbridge.compile_sql), the only plan cache there is.
    #: The name keeps its ``sql.plan_cache`` prefix: the e2e benchmark
    #: reads it.
    SQL_PLAN_CACHE_HITS = "sql.plan_cache.hits"

    #: Counter names of the incremental session path
    #: (UPASession.append / retire — see docs/performance.md): records
    #: whose mapped element was reused vs freshly mapped.
    INCR_RECORDS_REUSED = "incremental.records_reused"
    INCR_RECORDS_MAPPED = "incremental.records_mapped"

    #: Counter names of the session's table registry (core.table):
    #: protected lists hashed at first sight, phase 1s released from a
    #: registered table, build_aux results read back instead of rebuilt.
    TABLE_REGISTRATIONS = "table.registrations"
    TABLE_REUSES = "table.reuses"
    AUX_REUSES = "aux.reuses"

    #: Counter of replays: identical submissions answered with an
    #: earlier release's result (DESIGN.md §5 item 10).
    RELEASE_REPLAYS = "release.replays"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot(dict(self._counters))

    def mark(self) -> MetricsSnapshot:
        """Where the registry stands now, for :meth:`since`."""
        return self.snapshot()

    def since(self, mark: MetricsSnapshot) -> MetricsSnapshot:
        """The counts accumulated since ``mark``."""
        return self.snapshot().diff(mark)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
