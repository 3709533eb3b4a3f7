"""Task scheduler: runs per-partition tasks with retries from lineage.

The scheduler is intentionally simple — a job is a function applied to
each partition's iterator — but it implements the behaviours the
reproduction depends on:

* **retry from lineage**: a failed attempt (injected fault, or a worker
  process dying mid-task) is retried by recomputing the partition from
  scratch, which is only correct because RDD computation is
  deterministic and side-effect free;
* **pluggable executor backends** (``EngineConfig.backend``):

  - ``inline`` — tasks run sequentially on the calling thread;
  - ``threads`` — a persistent thread pool, so concurrency bugs
    (ordering assumptions, shared state) surface in tests;
  - ``processes`` — a persistent ``ProcessPoolExecutor``.  Each task
    ships as a self-contained pickle (see
    :mod:`repro.engine.procpool`): the partition's base records plus
    its narrow operator chain.  Jobs whose lineage or functions cannot
    cross a process boundary **fall back transparently** to the
    thread/inline path, counted by the ``process_fallbacks`` metric.
    A dead worker breaks the whole pool (CPython's
    ``BrokenProcessPool``); the scheduler respawns the pool, counts a
    ``worker_respawns``, and re-runs every unfinished partition from
    lineage — the process-backend expression of retry-from-lineage.

Both pools are **persistent**: created lazily on first use and reused
for every job after, because spawning a pool per job costs
thread/process creation on every engine round-trip — measurable when a
session issues thousands of small jobs, ruinous for processes.
``EngineContext.stop()`` shuts them down; a later job transparently
recreates them.  What only the ``processes`` backend runs
(``multiprocessing``, :mod:`repro.engine.procpool`,
:mod:`repro.obs.crossproc`) is imported by the first job that takes
that path, so an ``inline`` release never loads it (DESIGN.md §7).

Nested jobs always run inline, whatever the backend: on the driver a
task-thread running a job (``self._local.in_task``) must not re-enter
the shared pool (deadlock once outer tasks occupy every worker), and in
a process worker (:func:`repro.engine.procpool.in_worker`) any engine
created inside the worker must not fan out into pools of its own.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.common.errors import TaskFailedError
from repro.common.timing import Timer
from repro.engine.events import JobEvent, JobListener
from repro.engine.fault import FaultInjector, InjectedFault
from repro.engine.metrics import MetricsRegistry
from repro.obs.tracing import NULL_SPAN, NULL_TRACER, Tracer, task_contexts

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

T = TypeVar("T")
U = TypeVar("U")


def _in_worker() -> bool:
    """Is this process a pool worker?

    ``procpool.worker_initializer`` is what marks one, so a process
    that never loaded :mod:`repro.engine.procpool` is a driver.
    """
    procpool = sys.modules.get("repro.engine.procpool")
    return procpool is not None and procpool.in_worker()


class TaskScheduler:
    """Executes jobs over the partitions of an RDD."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        max_task_retries: int,
        backend: str = "inline",
        max_workers: int = 4,
        process_start_method: Optional[str] = None,
        use_threads: bool = False,
    ):
        self._metrics = metrics
        self._max_retries = max_task_retries
        if backend == "inline" and use_threads:
            backend = "threads"  # legacy spelling
        self._backend = backend
        self._max_workers = max_workers
        self._start_method = process_start_method
        self.fault_injector: Optional[FaultInjector] = None
        self.job_listener: Optional[JobListener] = None
        #: span tracer (NULL_TRACER = disabled, the zero-cost default);
        #: installed via EngineContext.install_tracer.
        self.tracer: Tracer = NULL_TRACER
        #: driver-side sampling profiler, installed via
        #: EngineContext.install_profiler; when live, process workers
        #: mirror its rate and ship their stacks back for merging.
        self.profiler = None
        # Pre-seed the process-health counters so a processes-backend
        # session exports them (with _total suffixes) from the first
        # scrape, even before any job falls back or any worker dies.
        if self._backend == "processes":
            self._metrics.incr(MetricsRegistry.PROCESS_FALLBACKS, 0.0)
            self._metrics.incr(MetricsRegistry.WORKER_RESPAWNS, 0.0)
        self._stage_ids = iter(range(1, 1 << 62))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._proc_pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        # True while the current thread is executing a task.  Nested
        # jobs (e.g. a shuffle materializing its parent from inside a
        # ShuffledRDD task) must run inline: handing them to the shared
        # pool could deadlock once outer tasks occupy every worker.
        self._local = threading.local()

    @property
    def backend(self) -> str:
        """The configured executor backend (after legacy resolution)."""
        return self._backend

    def _executor(self) -> ThreadPoolExecutor:
        """The persistent thread pool, created lazily on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-task",
                )
            return self._pool

    def _process_executor(self) -> ProcessPoolExecutor:
        """The persistent process pool, created lazily on first use."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine.procpool import worker_initializer

        with self._pool_lock:
            if self._proc_pool is None:
                mp_context = multiprocessing.get_context(self._start_method)
                self._proc_pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    mp_context=mp_context,
                    # mark workers (nested engines run inline there) and
                    # replay sys.path so spawn workers can import repro.
                    initializer=worker_initializer,
                    initargs=(list(sys.path),),
                )
            return self._proc_pool

    def _respawn_process_pool(self) -> None:
        """Discard a (typically broken) process pool; next use respawns."""
        with self._pool_lock:
            pool, self._proc_pool = self._proc_pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def shutdown(self) -> None:
        """Shut the persistent pools down (idempotent).

        Jobs submitted afterwards lazily recreate them, so a stopped
        scheduler degrades gracefully instead of erroring.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            proc_pool, self._proc_pool = self._proc_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if proc_pool is not None:
            proc_pool.shutdown(wait=True)

    def run_job(
        self,
        rdd,
        func: Callable[[Iterator[T]], U],
        partitions: Optional[Sequence[int]] = None,
    ) -> List[U]:
        """Apply ``func`` to each partition iterator of ``rdd``.

        Returns one result per partition, in partition order.
        """
        if partitions is None:
            partitions = range(rdd.num_partitions)
        # Normalize once: callers may pass any iterable (including a
        # generator), and we iterate it twice (len + map) below.
        partitions = tuple(partitions)
        stage_id = next(self._stage_ids)
        self._metrics.incr(MetricsRegistry.JOBS)
        attempts_before = self._metrics.get(MetricsRegistry.TASKS) + \
            self._metrics.get(MetricsRegistry.TASK_RETRIES)

        in_task = getattr(self._local, "in_task", False)
        # The job span is created (id allocated) before task payloads
        # pickle, because process tasks carry its id in their
        # SpanContext so worker-side engine.task spans parent under it.
        # The `backend` attribute is attached only after the execution
        # mode is resolved, so it reflects what actually ran (a process
        # job that falls back to threads is labelled threads).
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
        mode = self._backend
        if in_task or _in_worker() or len(partitions) <= 1:
            mode = "inline"
        payloads: Optional[Dict[int, bytes]] = None
        if mode == "processes":
            from repro.engine.procpool import (
                ProcessUnsupported,
                build_process_task,
                dumps_task,
            )
            from repro.obs.crossproc import SpanContext

            span_context = None
            if tracer.enabled:
                profiler = self.profiler
                span_context = SpanContext(
                    parent_span_id=job_span.span_id,
                    profile_hz=(
                        profiler.hz
                        if profiler is not None and profiler.running
                        else 0.0
                    ),
                )
            try:
                payloads = {
                    split: dumps_task(
                        build_process_task(
                            rdd, func, stage_id, split, span_context
                        )
                    )
                    for split in partitions
                }
            except ProcessUnsupported:
                # Lineage or closure can't cross the process boundary;
                # run the job on the thread path instead.
                self._metrics.incr(MetricsRegistry.PROCESS_FALLBACKS)
                mode = "threads" if self._max_workers > 1 else "inline"
        job_span.set_attribute("backend", mode)

        def run_one(split: int) -> U:
            return self._run_task(rdd, func, stage_id, split)

        with job_span, Timer() as timer:
            if mode == "processes":
                assert payloads is not None
                by_split = self._run_process_job(stage_id, partitions, payloads)
                results = [by_split[split] for split in partitions]
            elif mode == "threads":
                if tracer.enabled:
                    # Pool threads do not inherit the submitter's
                    # contextvars; run each task in a copy of this
                    # context so spans created inside tasks (shuffles,
                    # nested jobs) parent under the job span.
                    contexts = task_contexts(len(partitions))
                    results = list(
                        self._executor().map(
                            lambda pair: pair[0].run(run_one, pair[1]),
                            zip(contexts, partitions),
                        )
                    )
                else:
                    results = list(self._executor().map(run_one, partitions))
            else:
                results = [run_one(split) for split in partitions]
        self._metrics.observe(MetricsRegistry.JOB_SECONDS, timer.elapsed)
        if self.job_listener is not None:
            attempts_after = self._metrics.get(MetricsRegistry.TASKS) + \
                self._metrics.get(MetricsRegistry.TASK_RETRIES)
            self.job_listener.record(
                JobEvent(
                    stage_id=stage_id,
                    rdd_id=rdd.rdd_id,
                    rdd_type=type(rdd).__name__,
                    num_partitions=len(partitions),
                    duration_seconds=timer.elapsed,
                    task_attempts=int(attempts_after - attempts_before),
                )
            )
        return results

    def _run_task(
        self, rdd, func: Callable[[Iterator[T]], U], stage_id: int, split: int
    ) -> U:
        previously_in_task = getattr(self._local, "in_task", False)
        self._local.in_task = True
        try:
            attempts = 0
            while True:
                attempts += 1
                try:
                    if self.fault_injector is not None:
                        self.fault_injector.maybe_fail(stage_id, split, attempts)
                    started = time.perf_counter()
                    result = func(rdd.iterator(split))
                    self._metrics.incr(MetricsRegistry.TASKS)
                    self._metrics.observe(
                        MetricsRegistry.TASK_SECONDS,
                        time.perf_counter() - started,
                    )
                    return result
                except InjectedFault as fault:
                    self._metrics.incr(MetricsRegistry.TASK_RETRIES)
                    if attempts > self._max_retries:
                        raise TaskFailedError(
                            stage_id, split, attempts, fault
                        ) from fault
        finally:
            self._local.in_task = previously_in_task

    def _run_process_job(
        self,
        stage_id: int,
        partitions: Sequence[int],
        payloads: Dict[int, bytes],
    ) -> Dict[int, U]:
        """Run pre-pickled tasks on the process pool, surviving worker death.

        Fault injection stays on the driver (the injector holds locks
        and counters that must not be duplicated per process): each
        attempt consults it *before* submission, so injected faults
        retry with the same accounting as the inline path.  A worker
        dying breaks the whole pool — every in-flight future fails with
        ``BrokenProcessPool`` — so the pool is respawned and every
        unfinished partition re-submitted from its (deterministic)
        lineage.  The partition whose future surfaced the break is the
        one charged a retry; the rest are innocent bystanders and keep
        their attempt budget.
        """
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine.procpool import run_payload
        from repro.obs.crossproc import merge_telemetry

        results: Dict[int, U] = {}
        attempts = {split: 0 for split in partitions}
        pending = list(partitions)
        while pending:
            submitted: List[int] = []
            for split in pending:
                # Driver-side fault injection, mirroring _run_task.
                while True:
                    attempts[split] += 1
                    try:
                        if self.fault_injector is not None:
                            self.fault_injector.maybe_fail(
                                stage_id, split, attempts[split]
                            )
                        break
                    except InjectedFault as fault:
                        self._metrics.incr(MetricsRegistry.TASK_RETRIES)
                        if attempts[split] > self._max_retries:
                            raise TaskFailedError(
                                stage_id, split, attempts[split], fault
                            ) from fault
                submitted.append(split)
            pool = self._process_executor()
            try:
                futures = {
                    split: pool.submit(run_payload, payloads[split])
                    for split in submitted
                }
            except BrokenProcessPool:
                # The pool broke between jobs (submit fails fast); no
                # task ran, so nobody is charged a retry — respawn and
                # refund this round's attempts.
                self._metrics.incr(MetricsRegistry.WORKER_RESPAWNS)
                self._respawn_process_pool()
                for split in submitted:
                    attempts[split] -= 1
                continue
            broken: Optional[BaseException] = None
            blamed: Optional[int] = None
            for split in submitted:
                try:
                    elapsed, result, telemetry = futures[split].result()
                except BrokenProcessPool as exc:
                    broken, blamed = exc, split
                    break
                results[split] = result
                self._metrics.incr(MetricsRegistry.TASKS)
                self._metrics.observe(MetricsRegistry.TASK_SECONDS, elapsed)
                # Merge the piggybacked worker delta exactly once per
                # *recorded* result: an attempt lost to a dying worker
                # never returns, so respawned retries cannot
                # double-count its spans or histogram observations.
                merge_telemetry(
                    telemetry,
                    tracer=self.tracer,
                    metrics=self._metrics,
                    profiler=self.profiler,
                )
            pending = [s for s in partitions if s not in results]
            if broken is None:
                continue
            self._metrics.incr(MetricsRegistry.WORKER_RESPAWNS)
            self._metrics.incr(MetricsRegistry.TASK_RETRIES)
            self._respawn_process_pool()
            assert blamed is not None
            if attempts[blamed] > self._max_retries:
                raise TaskFailedError(
                    stage_id, blamed, attempts[blamed], broken
                ) from broken
            # Unfinished bystanders were submitted but not at fault:
            # refund the attempt so repeated worker deaths on one
            # partition cannot exhaust another partition's retries.
            for split in pending:
                if split != blamed and attempts[split] > 0:
                    attempts[split] -= 1
        return results
