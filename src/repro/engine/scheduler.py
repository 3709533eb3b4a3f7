"""Task scheduler: runs per-partition tasks with retries from lineage.

The scheduler is intentionally simple — a job is a function applied to
each partition's iterator, one partition after another on the calling
thread — but it implements the behaviours the reproduction depends on:

* **retry from lineage**: a failed attempt (an injected fault) is
  retried by recomputing the partition from scratch, which is only
  correct because RDD computation is deterministic and side-effect
  free;
* **observable task counts**: every job, task and retry is counted in
  the metrics registry, and with a tracer installed each job is an
  ``engine.job`` span whose ``task_attempts`` counts its tasks plus
  their retries.

Partition boundaries are fixed by the RDD, not by the scheduler, so the
order tasks run in never changes a job's results (DESIGN.md §7 records
why there is one executor).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, TypeVar

from repro.common.errors import TaskFailedError
from repro.engine.fault import FaultInjector, InjectedFault
from repro.engine.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Tracer

T = TypeVar("T")
U = TypeVar("U")


class TaskScheduler:
    """Executes jobs over the partitions of an RDD."""

    def __init__(self, metrics: MetricsRegistry, max_task_retries: int):
        self._metrics = metrics
        self._max_retries = max_task_retries
        self.fault_injector: Optional[FaultInjector] = None
        #: span tracer (NULL_TRACER = disabled, the zero-cost default);
        #: installed via EngineContext.install_tracer.
        self.tracer: Tracer = NULL_TRACER
        self._stage_ids = iter(range(1, 1 << 62))

    def run_job(self, rdd, func: Callable[[Iterator[T]], U]) -> List[U]:
        """Apply ``func`` to each partition iterator of ``rdd``.

        Returns one result per partition, in partition order.
        """
        partitions = range(rdd.num_partitions)
        stage_id = next(self._stage_ids)
        self._metrics.incr(MetricsRegistry.JOBS)
        retries_before = self._metrics.get(MetricsRegistry.TASK_RETRIES)

        tracer = self.tracer
        job_span = (
            tracer.span(
                "engine.job",
                stage_id=stage_id,
                rdd_id=rdd.rdd_id,
                rdd_type=type(rdd).__name__,
                partitions=len(partitions),
            )
            if tracer.enabled
            else NULL_SPAN
        )
        with job_span:
            results = [
                self._run_task(rdd, func, stage_id, split)
                for split in partitions
            ]
            retries = (
                self._metrics.get(MetricsRegistry.TASK_RETRIES)
                - retries_before
            )
            job_span.set_attribute(
                "task_attempts", len(partitions) + int(retries)
            )
        return results

    def _run_task(
        self, rdd, func: Callable[[Iterator[T]], U], stage_id: int, split: int
    ) -> U:
        attempts = 0
        while True:
            attempts += 1
            try:
                if self.fault_injector is not None:
                    self.fault_injector.maybe_fail(stage_id, split, attempts)
                result = func(rdd.iterator(split))
                self._metrics.incr(MetricsRegistry.TASKS)
                return result
            except InjectedFault as fault:
                self._metrics.incr(MetricsRegistry.TASK_RETRIES)
                if attempts > self._max_retries:
                    raise TaskFailedError(
                        stage_id, split, attempts, fault
                    ) from fault
