"""EngineContext: entry point to the MapReduce engine.

Owns the scheduler and metrics — the moral equivalent of a
``SparkContext``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Optional, Sequence, TypeVar

from repro.common.config import DEFAULT_CONFIG, EngineConfig
from repro.common.errors import EngineError
from repro.engine.fault import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import TaskScheduler

T = TypeVar("T")


class EngineContext:
    """Creates RDDs and owns all engine services.

    Example:
        >>> ctx = EngineContext()
        >>> rdd = ctx.parallelize([1, 2, 3, 4], num_partitions=2)
        >>> rdd.map(lambda v: v + 1).collect()
        [2, 3, 4, 5]
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or DEFAULT_CONFIG
        self.metrics = MetricsRegistry()
        self.scheduler = TaskScheduler(
            self.metrics, max_task_retries=self.config.max_task_retries
        )
        #: span tracer shared with the scheduler
        #: (disabled by default; see install_tracer).
        self.tracer = self.scheduler.tracer
        self._rdd_ids = itertools.count(1)
        self._lock = threading.Lock()

    def _next_rdd_id(self) -> int:
        with self._lock:
            return next(self._rdd_ids)

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    def parallelize(
        self, data: Iterable[T], num_partitions: Optional[int] = None
    ) -> RDD:
        """Distribute an in-memory collection into an RDD.

        ``num_partitions`` is ``None`` (the configured default
        parallelism) or an int >= 1; anything else, a bool included,
        raises :class:`EngineError`.
        """
        if num_partitions is None:
            num_partitions = self.config.default_parallelism
        elif (
            isinstance(num_partitions, bool)
            or not isinstance(num_partitions, int)
            or num_partitions < 1
        ):
            raise EngineError(
                f"num_partitions must be None or an int >= 1, "
                f"got {num_partitions!r}"
            )
        return ParallelCollectionRDD(self, data, num_partitions)

    def union(self, rdds: Sequence[RDD]) -> RDD:
        """Union of several RDDs."""
        if not rdds:
            return ParallelCollectionRDD(self, [], 1)
        result = rdds[0]
        for rdd in rdds[1:]:
            result = result.union(rdd)
        return result

    # ------------------------------------------------------------------
    # Fault injection and tracing
    # ------------------------------------------------------------------

    def install_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Install (or clear, with None) a task-level fault injector."""
        self.scheduler.fault_injector = injector

    def install_tracer(self, tracer) -> None:
        """Install (or clear, with None) a span tracer on the engine:
        each job then emits an ``engine.job`` span into it."""
        from repro.obs.tracing import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scheduler.tracer = self.tracer
