"""EngineContext: entry point to the MapReduce engine.

Owns the scheduler, shuffle manager, block store and metrics — the
moral equivalent of a ``SparkContext``.  The block store holds the
incremental session's mapped-element blocks, in namespaces drawn with
:meth:`EngineContext.reserve_cache_id`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Iterable, Optional, Sequence, TypeVar

from repro.common.config import DEFAULT_CONFIG, EngineConfig
from repro.common.errors import EngineError
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
        self.block_store = BlockStore(self.metrics)
        self.scheduler = TaskScheduler(
            self.metrics, max_task_retries=self.config.max_task_retries
        )
        self.shuffle_manager = ShuffleManager(self)
        #: span tracer shared with the scheduler and shuffle manager
        #: (disabled by default; see install_tracer).
        self.tracer = self.scheduler.tracer
        #: live introspection server, if serve() started one.
        self.obs_server = None
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

        Every call returns a fresh id (from the RDD id counter), so two
        caches of derived data in the block store (the incremental
        session's mapped-element blocks) never share a namespace.
        """
        return self._next_rdd_id()

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
        return ParallelCollectionRDD(self, list(data), num_partitions)

    def union(self, rdds: Sequence[RDD]) -> RDD:
        """Union of several RDDs."""
        if not rdds:
            return ParallelCollectionRDD(self, [], 1)
        result = rdds[0]
        for rdd in rdds[1:]:
            result = result.union(rdd)
        return result

    # ------------------------------------------------------------------
    # Fault injection
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

    @property
    def job_listener(self):
        """The installed job event listener, if any."""
        return self.scheduler.job_listener

    @property
    def stop_generation(self) -> int:
        """How many times this context has been stop()ped."""
        return self._stop_generation

    def serve(self, port: int = 0, host: str = "127.0.0.1",
              **sources: Any):
        """Start a live introspection server over this engine.

        Exposes the engine's metrics registry (and its tracer, when one
        is installed) on ``/metrics``, ``/healthz``, ``/traces``;
        ``sources`` forwards extra data sources (``ledger=``,
        ``accountants=``, ``alerts=``) straight to
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
        self.obs_server = ObservabilityServer(
            metrics=self.metrics, host=host, port=port, **sources
        ).start()
        return self.obs_server

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Release engine resources (idempotent).

        Stops the live server and drops stored shuffle outputs *and*
        every block-store block — a stopped context must not keep
        partition data alive between experiments.  The context remains
        usable: a later job recomputes from lineage, mirroring how
        ``SparkContext`` users call ``stop()`` when an application
        finishes.
        """
        if self.obs_server is not None:
            self.obs_server.stop()
            self.obs_server = None
        self.shuffle_manager.clear()
        self.block_store.clear()
        self._stop_generation += 1

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
