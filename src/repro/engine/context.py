"""EngineContext: entry point to the MapReduce engine.

Owns the scheduler, shuffle manager, block store and metrics — the
moral equivalent of a ``SparkContext``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Optional, Sequence, TypeVar

from repro.common.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.accumulator import Accumulator
from repro.engine.broadcast import Broadcast
from repro.engine.fault import FaultInjector
from repro.engine.metrics import MetricsRegistry
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import TaskScheduler
from repro.engine.shuffle import ShuffleManager
from repro.engine.storage import BlockStore

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
        self.block_store = BlockStore(self.config.cache_capacity_blocks, self.metrics)
        self.scheduler = TaskScheduler(
            self.metrics, max_task_retries=self.config.max_task_retries
        )
        self.shuffle_manager = ShuffleManager(self)
        #: span tracer shared with the scheduler and shuffle manager
        #: (disabled by default; see install_tracer).
        self.tracer = self.scheduler.tracer
        #: live introspection server, if serve() started one.
        self.obs_server = None
        #: time-series store sampling this engine's metrics (None
        #: unless install_timeseries ran; stop() stops its sampler).
        self.timeseries = None
        self._rdd_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: bumped by every stop(); a cache of derived data (the
        #: incremental session's element blocks) compares it to tell a
        #: stop() between its releases.
        self._stop_generation = 0

    def _next_rdd_id(self) -> int:
        with self._lock:
            return next(self._rdd_ids)

    def reserve_cache_id(self) -> int:
        """Reserve a block-store namespace id.

        Drawn from the same counter as RDD ids, so callers that cache
        derived data directly in the block store (e.g. the incremental
        session's mapped-element blocks) can never collide with a
        cached RDD's partitions.
        """
        return self._next_rdd_id()

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    def parallelize(
        self, data: Iterable[T], num_partitions: Optional[int] = None
    ) -> RDD:
        """Distribute an in-memory collection into an RDD."""
        return ParallelCollectionRDD(
            self, list(data), num_partitions or self.config.default_parallelism
        )

    def empty_rdd(self) -> RDD:
        return ParallelCollectionRDD(self, [], 1)

    def union(self, rdds: Sequence[RDD]) -> RDD:
        """Union of several RDDs."""
        if not rdds:
            return self.empty_rdd()
        result = rdds[0]
        for rdd in rdds[1:]:
            result = result.union(rdd)
        return result

    # ------------------------------------------------------------------
    # Shared variables
    # ------------------------------------------------------------------

    def broadcast(self, value: T) -> Broadcast:
        """Ship a read-only value to all tasks (counted by the cost model)."""
        return Broadcast(value, self.metrics, self.config.broadcast_record_cost)

    def accumulator(self, zero: T, combine: Callable[[T, T], T]) -> Accumulator:
        return Accumulator(zero, combine)

    # ------------------------------------------------------------------
    # Fault injection (tests / chaos benchmarks)
    # ------------------------------------------------------------------

    def install_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Install (or clear, with None) a task-level fault injector."""
        self.scheduler.fault_injector = injector

    def install_job_listener(self, listener) -> None:
        """Install (or clear, with None) a job event listener."""
        self.scheduler.job_listener = listener

    def install_tracer(self, tracer, events: bool = True) -> None:
        """Install (or clear, with None) a span tracer on the engine.

        Engine jobs and shuffles then emit spans into it.  With
        ``events=True`` (the default) a :class:`JobListener` is
        auto-wired alongside — traces and the job event log describe
        the same executions — unless one is already installed.
        """
        from repro.engine.events import JobListener
        from repro.obs.tracing import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scheduler.tracer = self.tracer
        if (
            events
            and self.tracer.enabled
            and self.scheduler.job_listener is None
        ):
            self.install_job_listener(JobListener())

    def install_timeseries(self, store) -> None:
        """Install (or clear, with None) a metric time-series store.

        The store samples this engine's registry (it is read-only over
        thread-safe snapshots, so it can never influence outputs);
        installing it here makes :meth:`serve` expose it on
        ``/timeseries`` + ``/dashboard`` and makes :meth:`stop` stop
        its sampler thread with the rest of the engine services.
        """
        if store is None:
            if self.timeseries is not None:
                self.timeseries.stop()
            self.timeseries = None
            return
        self.timeseries = store

    @property
    def job_listener(self):
        """The installed job event listener, if any."""
        return self.scheduler.job_listener

    @property
    def stop_generation(self) -> int:
        """How many times this context has been stop()ped."""
        return self._stop_generation

    def clear_shuffle_state(self) -> None:
        """Drop stored shuffle outputs (frees memory between experiments)."""
        self.shuffle_manager.clear()

    def serve(self, port: int = 0, host: str = "127.0.0.1",
              **sources: Any):
        """Start a live introspection server over this engine.

        Exposes the engine's metrics registry (and its tracer, when one
        is installed) on ``/metrics``, ``/healthz``, ``/traces``;
        ``sources`` forwards extra data sources (``ledger=``,
        ``accountants=``, ``alerts=``, ``profiler=``) straight to
        :class:`~repro.obs.server.ObservabilityServer`.  ``port=0``
        binds an ephemeral port; the started server is returned and
        also stopped by :meth:`stop`.
        """
        from repro.obs.server import ObservabilityServer
        from repro.obs.tracing import NULL_TRACER

        if self.obs_server is not None:
            return self.obs_server
        tracer = self.tracer if self.tracer is not NULL_TRACER else None
        sources.setdefault("tracer", tracer)
        sources.setdefault("timeseries", self.timeseries)
        self.obs_server = ObservabilityServer(
            metrics=self.metrics, host=host, port=port, **sources
        ).start()
        return self.obs_server

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Release engine resources (idempotent).

        Stops the live server and time-series sampler and drops stored
        shuffle outputs *and* cached partition blocks — a stopped
        context must not keep partition data alive between
        experiments.  The context remains usable: a later job
        repopulates caches from lineage, mirroring how
        ``SparkContext`` users call ``stop()`` when an application
        finishes.
        """
        if self.obs_server is not None:
            self.obs_server.stop()
            self.obs_server = None
        if self.timeseries is not None:
            self.timeseries.stop()
        self.shuffle_manager.clear()
        self.block_store.clear()
        self._stop_generation += 1

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
