"""Resilient Distributed Dataset: lazy, partitioned, lineage-tracked.

The API mirrors the part of Spark's RDD that this package runs — a
release, the SQL executor and :mod:`repro.core.dpobject` — in
snake_case (``tests/test_engine_surface.py`` names the caller of each
public method).  Every transformation is narrow and lazy — it builds a
lineage graph — and actions trigger jobs on the context's scheduler.
Nothing shuffles: a key-value fold or a join folds or probes each
partition and merges on the driver (the SQL executor's GROUP BY and
join, Table I's reduceByKeyDP and joinDP).
"""

from __future__ import annotations

import copy
from typing import (
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

T = TypeVar("T")
U = TypeVar("U")
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
        return MapPartitionsRDD(self, lambda it: (f(rec) for rec in it))

    def map_partitions(self, f: Callable[[Iterator[T]], Iterable[U]]) -> "RDD":
        """Apply ``f`` to each whole partition iterator."""
        return MapPartitionsRDD(self, f)

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no shuffle; partitions are appended)."""
        return UnionRDD(self.context, [self, other])

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

    def __init__(self, context, data: Iterable, num_partitions: int):
        super().__init__(context, num_partitions)
        # its own copy: a retry from lineage rereads what was handed in,
        # whatever the caller has done to its list since
        self._data = list(data)

    def compute(self, split: int) -> Iterator:
        total = len(self._data)
        parts = self.num_partitions
        start = (split * total) // parts
        end = ((split + 1) * total) // parts
        self.context.metrics.incr(MetricsRegistry.RECORDS_READ, end - start)
        return iter(self._data[start:end])


class MapPartitionsRDD(RDD):
    """Narrow transformation: a function of the parent's partition iterator."""

    def __init__(self, parent: RDD, f: Callable[[Iterator], Iterable]):
        super().__init__(parent.context, parent.num_partitions, [parent])
        self._parent = parent
        self._f = f

    def compute(self, split: int) -> Iterator:
        return iter(self._f(self._parent.iterator(split)))


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

