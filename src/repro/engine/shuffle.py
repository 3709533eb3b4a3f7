"""Shuffle machinery: wide dependencies between stages.

A shuffle runs a map-side job that buckets every ``(key, value)`` pair
by the target partitioner, combining values per key map-side as Spark
does for ``reduce_by_key``, records the exchanged record count in the
metrics registry, and stores the buckets so reduce tasks can fetch
them.  ``ShuffledRDD`` and ``CoGroupedRDD`` are the two wide RDDs the
key-value operations :mod:`repro.core.dpobject` runs build on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

from repro.engine.metrics import MetricsRegistry
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD

K = TypeVar("K")
V = TypeVar("V")
C = TypeVar("C")


@dataclass(frozen=True)
class Aggregator:
    """Map-side + reduce-side combining functions (Spark's Aggregator)."""

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]


class ShuffleManager:
    """Executes shuffles and stores their outputs per reduce partition.

    Outputs are kept until :meth:`clear`; a shuffle is executed at most
    once per ``shuffle_id`` (requests are serialized by a lock).
    """

    def __init__(self, context):
        self._context = context
        self._lock = threading.Lock()
        # shuffle_id -> list (by reduce partition) of list[(key, combiner)]
        self._outputs: Dict[int, List[List[Tuple[Any, Any]]]] = {}
        self._next_id = 0

    def new_shuffle_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def clear(self) -> None:
        with self._lock:
            self._outputs.clear()

    def fetch(
        self,
        shuffle_id: int,
        parent: RDD,
        partitioner: HashPartitioner,
        aggregator: Aggregator,
        reduce_split: int,
    ) -> List[Tuple[Any, Any]]:
        """Run the shuffle if needed, then return one reduce bucket."""
        self._ensure(shuffle_id, parent, partitioner, aggregator)
        return self._outputs[shuffle_id][reduce_split]

    def _ensure(
        self,
        shuffle_id: int,
        parent: RDD,
        partitioner: HashPartitioner,
        aggregator: Aggregator,
    ) -> None:
        with self._lock:
            if shuffle_id in self._outputs:
                return
        tracer = self._context.tracer
        span = (
            tracer.span("engine.shuffle", shuffle_id=shuffle_id,
                        partitions=partitioner.num_partitions)
            if tracer.enabled
            else None
        )
        # Map-side job outside the lock (it may trigger nested shuffles).
        if span is not None:
            with span:
                buckets = self._run_map_side(parent, partitioner, aggregator)
                span.set_attribute(
                    "records", sum(len(bucket) for bucket in buckets)
                )
        else:
            buckets = self._run_map_side(parent, partitioner, aggregator)
        with self._lock:
            if shuffle_id not in self._outputs:
                self._outputs[shuffle_id] = buckets
                metrics = self._context.metrics
                records = sum(len(bucket) for bucket in buckets)
                metrics.incr(MetricsRegistry.SHUFFLES)
                metrics.incr(MetricsRegistry.RECORDS_SHUFFLED, records)
                metrics.observe(MetricsRegistry.SHUFFLE_RECORDS, records)

    def _run_map_side(
        self,
        parent: RDD,
        partitioner: HashPartitioner,
        aggregator: Aggregator,
    ) -> List[List[Tuple[Any, Any]]]:
        num_out = partitioner.num_partitions
        map_task = _ShuffleMapTask(partitioner, aggregator, num_out)
        per_map = self._context.scheduler.run_job(parent, map_task)
        merged: List[List[Tuple[Any, Any]]] = [[] for _ in range(num_out)]
        for task_buckets in per_map:
            for out_idx, bucket in enumerate(task_buckets):
                merged[out_idx].extend(bucket)
        return merged


class ShuffledRDD(RDD):
    """Wide RDD produced by ``combine_by_key``: each partition holds
    its keys' merged combiners."""

    def __init__(
        self, parent: RDD, partitioner: HashPartitioner, aggregator: Aggregator
    ):
        super().__init__(parent.context, partitioner.num_partitions, [parent])
        self._parent = parent
        self.partitioner = partitioner
        self._aggregator = aggregator
        self._shuffle_id = parent.context.shuffle_manager.new_shuffle_id()

    def compute(self, split: int) -> Iterator:
        bucket = self.context.shuffle_manager.fetch(
            self._shuffle_id, self._parent, self.partitioner, self._aggregator, split
        )
        merged: Dict[Any, Any] = {}
        merge = self._aggregator.merge_combiners
        for key, combiner in bucket:
            if key in merged:
                merged[key] = merge(merged[key], combiner)
            else:
                merged[key] = combiner
        return iter(merged.items())


class CoGroupedRDD(RDD):
    """Group N pair-RDDs by key: ``(key, (values_0, ..., values_{N-1}))``.

    Each parent is shuffled with a list-building aggregator; the reduce
    side aligns the per-parent groups by key.
    """

    def __init__(self, parents: Sequence[RDD], partitioner: HashPartitioner):
        if not parents:
            raise ValueError("CoGroupedRDD needs at least one parent")
        super().__init__(parents[0].context, partitioner.num_partitions, parents)
        self._parents = list(parents)
        self.partitioner = partitioner
        manager = self.context.shuffle_manager
        self._shuffle_ids = [manager.new_shuffle_id() for _ in self._parents]
        self._aggregator = Aggregator(
            create_combiner=lambda v: [v],
            merge_value=_append_value,
            merge_combiners=_extend_lists,
        )

    def compute(self, split: int) -> Iterator:
        grouped: Dict[Any, List[List[Any]]] = {}
        n = len(self._parents)
        for idx, (parent, shuffle_id) in enumerate(
            zip(self._parents, self._shuffle_ids)
        ):
            bucket = self.context.shuffle_manager.fetch(
                shuffle_id, parent, self.partitioner, self._aggregator, split
            )
            for key, values in bucket:
                slot = grouped.get(key)
                if slot is None:
                    slot = [[] for _ in range(n)]
                    grouped[key] = slot
                slot[idx].extend(values)
        return ((key, tuple(slots)) for key, slots in grouped.items())


class _ShuffleMapTask:
    """Map-side shuffle task: combine pairs per key into buckets."""

    __slots__ = ("partitioner", "aggregator", "num_out")

    def __init__(
        self,
        partitioner: HashPartitioner,
        aggregator: Aggregator,
        num_out: int,
    ):
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.num_out = num_out

    def __call__(self, it: Iterator[Tuple[Any, Any]]):
        partitioner, aggregator = self.partitioner, self.aggregator
        combined: List[Dict[Any, Any]] = [{} for _ in range(self.num_out)]
        for key, value in it:
            bucket = combined[partitioner.partition(key)]
            if key in bucket:
                bucket[key] = aggregator.merge_value(bucket[key], value)
            else:
                bucket[key] = aggregator.create_combiner(value)
        return [list(bucket.items()) for bucket in combined]


def _append_value(acc: List[Any], value: Any) -> List[Any]:
    acc.append(value)
    return acc


def _extend_lists(a: List[Any], b: List[Any]) -> List[Any]:
    a.extend(b)
    return a
