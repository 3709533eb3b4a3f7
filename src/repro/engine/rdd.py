"""Resilient Distributed Dataset: lazy, partitioned, lineage-tracked.

The API mirrors the part of Spark's RDD that this package runs — a
release, the SQL executor and :mod:`repro.core.dpobject` — in
snake_case (``tests/test_engine_surface.py`` names the caller of each
public method).  All transformations are lazy — they build a lineage
graph — and actions trigger jobs on the context's scheduler.  The
key-value operations that shuffle serve :mod:`repro.core.dpobject`
alone; they live here but construct their shuffle RDDs from
:mod:`repro.engine.shuffle` (imported locally to keep the module graph
acyclic, the same layering Spark uses between ``RDD`` and
``ShuffledRDD``).
"""

from __future__ import annotations

import copy
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.common.errors import EngineError
from repro.engine.metrics import MetricsRegistry
from repro.engine.partitioner import HashPartitioner

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")
C = TypeVar("C")


class RDD:
    """Base RDD: subclasses implement :meth:`compute`.

    Attributes:
        context: owning :class:`repro.engine.context.EngineContext`.
        rdd_id: unique id within the context.
        num_partitions: number of splits.
        dependencies: parent RDDs (lineage, for debugging/tests).
    """

    def __init__(self, context, num_partitions: int, dependencies: Sequence["RDD"] = ()):
        if num_partitions <= 0:
            raise EngineError(f"RDD must have >=1 partition, got {num_partitions}")
        self.context = context
        self.rdd_id = context._next_rdd_id()
        self.num_partitions = num_partitions
        self.dependencies: Tuple[RDD, ...] = tuple(dependencies)

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------

    def compute(self, split: int) -> Iterator:
        """Produce the records of one partition (subclass responsibility)."""
        raise NotImplementedError

    def iterator(self, split: int) -> Iterator:
        """Compute a partition from lineage."""
        return self.compute(split)

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map(self, f: Callable[[T], U]) -> "RDD":
        """Apply ``f`` to every record."""
        return MapPartitionsRDD(
            self, lambda _split, it: (f(rec) for rec in it)
        )

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD":
        """Apply ``f`` and flatten the resulting iterables."""
        return MapPartitionsRDD(
            self, lambda _split, it: (out for rec in it for out in f(rec))
        )

    def filter(self, predicate: Callable[[T], bool]) -> "RDD":
        """Keep records where ``predicate`` is true."""
        return MapPartitionsRDD(
            self, lambda _split, it: (rec for rec in it if predicate(rec))
        )

    def map_partitions(self, f: Callable[[Iterator[T]], Iterable[U]]) -> "RDD":
        """Apply ``f`` to each whole partition iterator."""
        return MapPartitionsRDD(self, lambda _split, it: f(it))

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no shuffle; partitions are appended)."""
        return UnionRDD(self.context, [self, other])

    def zip_with_index(self) -> "RDD":
        """Pair each record with a global 0-based index (triggers a job)."""
        sizes = self.context.scheduler.run_job(self, _count_iter)
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)
        return MapPartitionsRDD(
            self,
            lambda split, it: (
                (rec, offsets[split] + i) for i, rec in enumerate(it)
            ),
        )

    # ------------------------------------------------------------------
    # Key-value transformations (records must be (key, value) tuples)
    # ------------------------------------------------------------------

    def combine_by_key(
        self,
        create_combiner: Callable[[V], C],
        merge_value: Callable[[C, V], C],
        merge_combiners: Callable[[C, C], C],
    ) -> "RDD":
        """The generic shuffle aggregation ``reduce_by_key`` builds on."""
        from repro.engine.shuffle import Aggregator, ShuffledRDD

        partitioner = HashPartitioner(self.num_partitions)
        aggregator = Aggregator(create_combiner, merge_value, merge_combiners)
        return ShuffledRDD(self, partitioner, aggregator)

    def reduce_by_key(self, f: Callable[[V, V], V]) -> "RDD":
        """Merge values per key with a commutative, associative function."""
        return self.combine_by_key(lambda v: v, f, f)

    def cogroup(self, other: "RDD") -> "RDD":
        """Group both RDDs by key: ``(k, ([vs from self], [ws from other]))``."""
        from repro.engine.shuffle import CoGroupedRDD

        partitioner = HashPartitioner(
            max(self.num_partitions, other.num_partitions)
        )
        return CoGroupedRDD([self, other], partitioner)

    def join(self, other: "RDD") -> "RDD":
        """Inner join: ``(k, (v, w))`` for every matching pair."""
        return self.cogroup(other).flat_map(
            lambda kvw: (
                (kvw[0], (v, w)) for v in kvw[1][0] for w in kvw[1][1]
            )
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> List[T]:
        """Materialize every record on the driver, in partition order."""
        chunks = self.context.scheduler.run_job(self, list)
        return [rec for chunk in chunks for rec in chunk]

    def count(self) -> int:
        """Number of records."""
        return sum(self.context.scheduler.run_job(self, _count_iter))

    def is_empty(self) -> bool:
        return self.take(1) == []

    def first(self) -> T:
        taken = self.take(1)
        if not taken:
            raise EngineError("first() on an empty RDD")
        return taken[0]

    def take(self, n: int) -> List[T]:
        """Return up to ``n`` records, scanning partitions in order."""
        if n <= 0:
            return []
        out: List[T] = []
        for split in range(self.num_partitions):
            needed = n - len(out)
            if needed <= 0:
                break
            chunk = self.context.scheduler.run_job(
                self, lambda it, n=needed: list(_take_iter(it, n)),
                partitions=[split],
            )[0]
            out.extend(chunk)
        return out[:n]

    def reduce(self, f: Callable[[T, T], T]) -> T:
        """Combine all records with a commutative, associative ``f``."""
        def reduce_partition(it: Iterator) -> Tuple[bool, Any]:
            acc = None
            seen = False
            for rec in it:
                acc = rec if not seen else f(acc, rec)
                seen = True
            return (seen, acc)

        partials = self.context.scheduler.run_job(self, reduce_partition)
        acc = None
        seen = False
        for has, part in partials:
            if not has:
                continue
            acc = part if not seen else f(acc, part)
            seen = True
        if not seen:
            raise EngineError("reduce() on an empty RDD")
        return acc

    def aggregate(
        self, zero: C, seq_op: Callable[[C, T], C], comb_op: Callable[[C, C], C]
    ) -> C:
        """Aggregate with distinct within/between-partition operators.

        The zero value is cloned per task, so a mutable zero (a list, an
        array) is never shared between partitions.
        """
        partials = self.context.scheduler.run_job(
            self, lambda it: _fold_iter(it, copy.deepcopy(zero), seq_op)
        )
        acc = copy.deepcopy(zero)
        for part in partials:
            acc = comb_op(acc, part)
        return acc

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} id={self.rdd_id} "
            f"partitions={self.num_partitions}>"
        )


def _take_iter(it: Iterator[T], n: int) -> Iterator[T]:
    for i, rec in enumerate(it):
        if i >= n:
            return
        yield rec


def _fold_iter(it: Iterator[T], zero: C, op: Callable[[C, T], C]) -> C:
    acc = zero
    for rec in it:
        acc = op(acc, rec)
    return acc


def _count_iter(it: Iterator) -> int:
    return sum(1 for _ in it)


class ParallelCollectionRDD(RDD):
    """An RDD over an in-memory sequence, split into even slices."""

    def __init__(self, context, data: Sequence, num_partitions: int):
        super().__init__(context, num_partitions)
        self._data = list(data)

    def compute(self, split: int) -> Iterator:
        total = len(self._data)
        parts = self.num_partitions
        start = (split * total) // parts
        end = ((split + 1) * total) // parts
        self.context.metrics.incr(MetricsRegistry.RECORDS_READ, end - start)
        return iter(self._data[start:end])


class MapPartitionsRDD(RDD):
    """Narrow transformation: a function of (split, parent iterator)."""

    def __init__(self, parent: RDD, f: Callable[[int, Iterator], Iterable]):
        super().__init__(parent.context, parent.num_partitions, [parent])
        self._parent = parent
        self._f = f

    def compute(self, split: int) -> Iterator:
        return iter(self._f(split, self._parent.iterator(split)))


class UnionRDD(RDD):
    """Concatenation: partitions of all parents, in order."""

    def __init__(self, context, parents: Sequence[RDD]):
        total = sum(p.num_partitions for p in parents)
        super().__init__(context, total, parents)
        self._parents = list(parents)

    def compute(self, split: int) -> Iterator:
        for parent in self._parents:
            if split < parent.num_partitions:
                return parent.iterator(split)
            split -= parent.num_partitions
        raise EngineError(f"split {split} out of range for UnionRDD")

