"""Job event log: observability for engine executions.

A listener attached to the scheduler records one event per job (stage
id, partition count, wall time, task attempts), giving tests and
benchmarks a structured view of *what ran* — the moral equivalent of
Spark's event log / SparkListener.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, List


@dataclass(frozen=True)
class JobEvent:
    """One completed job."""

    stage_id: int
    rdd_id: int
    rdd_type: str
    num_partitions: int
    duration_seconds: float
    task_attempts: int


class JobListener:
    """Collects :class:`JobEvent` records; install via
    :meth:`repro.engine.context.EngineContext.install_job_listener`."""

    def __init__(self, capacity: int = 10_000):
        self._lock = threading.Lock()
        # deque(maxlen=...) evicts the oldest event in O(1); the old
        # list implementation paid an O(n) left-shift per eviction,
        # which compounds when a long session overflows the capacity
        # on every job.
        self._events: Deque[JobEvent] = deque(maxlen=capacity)

    def record(self, event: JobEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> List[JobEvent]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def summary(self) -> str:
        """One-line-per-job text report."""
        lines = [
            f"stage={e.stage_id} rdd={e.rdd_type}[{e.rdd_id}] "
            f"partitions={e.num_partitions} tasks={e.task_attempts} "
            f"{e.duration_seconds * 1000:.1f}ms"
            for e in self.events()
        ]
        return "\n".join(lines)
