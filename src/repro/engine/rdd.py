"""Resilient Distributed Dataset: lazy, partitioned, lineage-tracked.

The API mirrors (a useful subset of) Spark's RDD in snake_case.  All
transformations are lazy — they build a lineage graph — and actions
trigger jobs on the context's scheduler.  Key-value operations that need
a shuffle live here too but construct their shuffle RDDs from
:mod:`repro.engine.shuffle` (imported locally to keep the module graph
acyclic, the same layering Spark uses between ``RDD`` and
``ShuffledRDD``).
"""

from __future__ import annotations

import copy
import heapq
from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.common.errors import EngineError
from repro.engine.metrics import MetricsRegistry
from repro.engine.partitioner import HashPartitioner, Partitioner, RangePartitioner

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")
W = TypeVar("W")
C = TypeVar("C")


class RDD:
    """Base RDD: subclasses implement :meth:`compute`.

    Attributes:
        context: owning :class:`repro.engine.context.EngineContext`.
        rdd_id: unique id within the context (used as cache key).
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
        self._persisted = False

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------

    def compute(self, split: int) -> Iterator:
        """Produce the records of one partition (subclass responsibility)."""
        raise NotImplementedError

    def iterator(self, split: int) -> Iterator:
        """Compute a partition, consulting the block store if persisted."""
        if not self._persisted:
            return self.compute(split)
        store = self.context.block_store
        block_id = (self.rdd_id, split)
        cached = store.get(block_id)
        if cached is not None:
            return iter(cached)
        records = list(self.compute(split))
        store.put(block_id, records)
        return iter(records)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def cache(self) -> "RDD":
        """Persist this RDD's partitions in the block store after first use."""
        self._persisted = True
        return self

    def unpersist(self) -> "RDD":
        """Stop caching and drop any stored blocks."""
        self._persisted = False
        self.context.block_store.evict_rdd(self.rdd_id)
        return self

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

    def map_partitions_with_index(
        self, f: Callable[[int, Iterator[T]], Iterable[U]]
    ) -> "RDD":
        """Like :meth:`map_partitions` but also receives the split index."""
        return MapPartitionsRDD(self, f)

    def glom(self) -> "RDD":
        """Turn each partition into a single list record."""
        return MapPartitionsRDD(self, lambda _split, it: iter([list(it)]))

    def key_by(self, f: Callable[[T], K]) -> "RDD":
        """Produce ``(f(rec), rec)`` pairs."""
        return self.map(lambda rec: (f(rec), rec))

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs (no shuffle; partitions are appended)."""
        return UnionRDD(self.context, [self, other])

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        """Remove duplicate records (requires hashable records; shuffles)."""
        return (
            self.map(lambda rec: (rec, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .map(lambda kv: kv[0])
        )

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Bernoulli-sample records with probability ``fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise EngineError(f"sample fraction must be in [0,1], got {fraction}")
        rdd_id = self.rdd_id

        def sample_split(split: int, it: Iterator) -> Iterator:
            from repro.common.rng import make_rng

            rng = make_rng(seed, f"sample-{rdd_id}-{split}")
            return (rec for rec in it if rng.random() < fraction)

        return MapPartitionsRDD(self, sample_split)

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

    def repartition(self, num_partitions: int) -> "RDD":
        """Redistribute records across ``num_partitions`` via a shuffle."""
        indexed = self.zip_with_index().map(lambda pair: (pair[1], pair[0]))
        return indexed.partition_by(HashPartitioner(num_partitions)).map(
            lambda kv: kv[1]
        )

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce the partition count without a shuffle."""
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def sort_by(
        self,
        key_func: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Globally sort by ``key_func`` using range partitioning."""
        parts = num_partitions or self.num_partitions
        keys = self.map(key_func).collect()
        if not keys:
            return self
        sorted_keys = sorted(keys)
        if parts <= 1 or len(sorted_keys) <= 1:
            bounds: List[Any] = []
        else:
            step = len(sorted_keys) / parts
            bounds = [
                sorted_keys[min(len(sorted_keys) - 1, max(0, int(step * i) - 1))]
                for i in range(1, parts)
            ]
        partitioner = RangePartitioner(bounds, ascending=ascending)
        keyed = self.key_by(key_func).partition_by(partitioner)
        return keyed.map_partitions(
            lambda it: (
                kv[1]
                for kv in sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            )
        )

    # ------------------------------------------------------------------
    # Key-value transformations (records must be (key, value) tuples)
    # ------------------------------------------------------------------

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def map_values(self, f: Callable[[V], U]) -> "RDD":
        return self.map(lambda kv: (kv[0], f(kv[1])))

    def flat_map_values(self, f: Callable[[V], Iterable[U]]) -> "RDD":
        return self.flat_map(lambda kv: ((kv[0], out) for out in f(kv[1])))

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Shuffle pairs so each key lands on ``partitioner.partition(key)``."""
        from repro.engine.shuffle import ShuffledRDD

        return ShuffledRDD(self, partitioner, aggregator=None)

    def combine_by_key(
        self,
        create_combiner: Callable[[V], C],
        merge_value: Callable[[C, V], C],
        merge_combiners: Callable[[C, C], C],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """The generic shuffle aggregation every ``*_by_key`` builds on."""
        from repro.engine.shuffle import Aggregator, ShuffledRDD

        partitioner = HashPartitioner(num_partitions or self.num_partitions)
        aggregator = Aggregator(create_combiner, merge_value, merge_combiners)
        return ShuffledRDD(self, partitioner, aggregator)

    def reduce_by_key(
        self, f: Callable[[V, V], V], num_partitions: Optional[int] = None
    ) -> "RDD":
        """Merge values per key with a commutative, associative function."""
        return self.combine_by_key(lambda v: v, f, f, num_partitions)

    def fold_by_key(
        self, zero: V, f: Callable[[V, V], V], num_partitions: Optional[int] = None
    ) -> "RDD":
        return self.combine_by_key(lambda v: f(zero, v), f, f, num_partitions)

    def aggregate_by_key(
        self,
        zero: C,
        seq_op: Callable[[C, V], C],
        comb_op: Callable[[C, C], C],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        return self.combine_by_key(
            lambda v: seq_op(zero, v), seq_op, comb_op, num_partitions
        )

    def group_by_key(self, num_partitions: Optional[int] = None) -> "RDD":
        """Collect all values per key into a list."""

        def merge_value(acc: List[V], v: V) -> List[V]:
            acc.append(v)
            return acc

        def merge_combiners(a: List[V], b: List[V]) -> List[V]:
            a.extend(b)
            return a

        return self.combine_by_key(lambda v: [v], merge_value, merge_combiners,
                                   num_partitions)

    def cogroup(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Group both RDDs by key: ``(k, ([vs from self], [ws from other]))``."""
        from repro.engine.shuffle import CoGroupedRDD

        partitioner = HashPartitioner(
            num_partitions or max(self.num_partitions, other.num_partitions)
        )
        return CoGroupedRDD([self, other], partitioner)

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner join: ``(k, (v, w))`` for every matching pair."""
        return self.cogroup(other, num_partitions).flat_map(
            lambda kvw: (
                (kvw[0], (v, w)) for v in kvw[1][0] for w in kvw[1][1]
            )
        )

    def left_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Left outer join: unmatched left rows pair with ``None``."""

        def emit(kvw):
            key, (left_vals, right_vals) = kvw
            if not right_vals:
                return ((key, (v, None)) for v in left_vals)
            return ((key, (v, w)) for v in left_vals for w in right_vals)

        return self.cogroup(other, num_partitions).flat_map(emit)

    def right_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Right outer join: unmatched right rows pair with ``None``."""

        def emit(kvw):
            key, (left_vals, right_vals) = kvw
            if not left_vals:
                return ((key, (None, w)) for w in right_vals)
            return ((key, (v, w)) for v in left_vals for w in right_vals)

        return self.cogroup(other, num_partitions).flat_map(emit)

    def full_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Full outer join: unmatched rows on either side pair with ``None``."""

        def emit(kvw):
            key, (left_vals, right_vals) = kvw
            if not left_vals:
                return ((key, (None, w)) for w in right_vals)
            if not right_vals:
                return ((key, (v, None)) for v in left_vals)
            return ((key, (v, w)) for v in left_vals for w in right_vals)

        return self.cogroup(other, num_partitions).flat_map(emit)

    def semi_join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Left semi join: left pairs whose key appears in ``other``."""
        return self.cogroup(other, num_partitions).flat_map(
            lambda kvw: (
                ((kvw[0], v) for v in kvw[1][0]) if kvw[1][1] else ()
            )
        )

    def anti_join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Left anti join: left pairs whose key does NOT appear in ``other``."""
        return self.cogroup(other, num_partitions).flat_map(
            lambda kvw: (
                ((kvw[0], v) for v in kvw[1][0]) if not kvw[1][1] else ()
            )
        )

    def subtract_by_key(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        return self.anti_join(other, num_partitions)

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

    def fold(self, zero: T, f: Callable[[T, T], T]) -> T:
        """Fold with a zero element.

        Like Spark, the zero value is cloned per task so mutable
        accumulators (lists, StatCounter, ...) are safe.
        """
        partials = self.context.scheduler.run_job(
            self, lambda it: _fold_iter(it, copy.deepcopy(zero), f)
        )
        acc = copy.deepcopy(zero)
        for part in partials:
            acc = f(acc, part)
        return acc

    def aggregate(
        self, zero: C, seq_op: Callable[[C, T], C], comb_op: Callable[[C, C], C]
    ) -> C:
        """Aggregate with distinct within/between-partition operators.

        The zero value is cloned per task (see :meth:`fold`).
        """
        partials = self.context.scheduler.run_job(
            self, lambda it: _fold_iter(it, copy.deepcopy(zero), seq_op)
        )
        acc = copy.deepcopy(zero)
        for part in partials:
            acc = comb_op(acc, part)
        return acc

    def sum(self) -> Any:
        return self.fold(0, _add)

    def min(self) -> T:
        return self.reduce(_min2)

    def max(self) -> T:
        return self.reduce(_max2)

    def mean(self) -> float:
        total, count = self.aggregate(
            (0.0, 0),
            lambda acc, rec: (acc[0] + rec, acc[1] + 1),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        if count == 0:
            raise EngineError("mean() on an empty RDD")
        return total / count

    def count_by_value(self) -> Dict[T, int]:
        partials = self.context.scheduler.run_job(self, _count_by_value_iter)
        totals: Dict[T, int] = defaultdict(int)
        for partial in partials:
            for key, cnt in partial.items():
                totals[key] += cnt
        return dict(totals)

    def count_by_key(self) -> Dict[K, int]:
        return self.map(lambda kv: kv[0]).count_by_value()

    def collect_as_map(self) -> Dict[K, V]:
        return dict(self.collect())

    def lookup(self, key: K) -> List[V]:
        return self.filter(lambda kv: kv[0] == key).values().collect()

    def top(self, n: int, key: Optional[Callable[[T], Any]] = None) -> List[T]:
        """The ``n`` largest records (by optional key), descending."""
        partials = self.context.scheduler.run_job(
            self, lambda it: heapq.nlargest(n, it, key=key)
        )
        merged = [rec for chunk in partials for rec in chunk]
        return heapq.nlargest(n, merged, key=key)

    def foreach(self, f: Callable[[T], None]) -> None:
        """Run ``f`` on every record for its side effects (accumulators)."""
        self.context.scheduler.run_job(self, lambda it: _consume(it, f))

    def checkpoint(self) -> "RDD":
        """Materialize this RDD now and truncate its lineage.

        Long lineage chains make recomputation after failures expensive;
        checkpointing trades memory for a fresh, dependency-free RDD.
        Returns a new RDD over the materialized data (this one is
        unchanged).
        """
        chunks = self.context.scheduler.run_job(self, list)
        checkpointed = ParallelCollectionRDD(
            self.context,
            [rec for chunk in chunks for rec in chunk],
            self.num_partitions,
        )
        return checkpointed

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs (a, b); |self| x |other| records.

        The other side is materialized per partition (like Spark's
        block-nested-loop cartesian), so keep it small.
        """
        other_rows = other.collect()
        return MapPartitionsRDD(
            self,
            lambda _split, it: ((a, b) for a in it for b in other_rows),
        )

    def stats(self) -> "StatCounter":
        """Count/mean/variance/min/max in one pass (numeric records)."""
        return self.aggregate(StatCounter(), _stat_seq, _stat_comb)

    def to_debug_string(self) -> str:
        """Lineage tree, one node per line (Spark's toDebugString)."""
        lines: List[str] = []

        def visit(rdd: "RDD", depth: int) -> None:
            lines.append(
                "  " * depth
                + f"({rdd.num_partitions}) {type(rdd).__name__}[{rdd.rdd_id}]"
                + (" [cached]" if rdd._persisted else "")
            )
            for dep in rdd.dependencies:
                visit(dep, depth + 1)

        visit(self, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} id={self.rdd_id} "
            f"partitions={self.num_partitions}>"
        )


class StatCounter:
    """Welford-style running statistics, mergeable across partitions."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def merge_value(self, value) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def merge_stats(self, other: "StatCounter") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else float("nan")

    @property
    def stdev(self) -> float:
        return self.variance ** 0.5

    def __repr__(self) -> str:
        return (
            f"StatCounter(count={self.count}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g}, min={self.min:.6g}, max={self.max:.6g})"
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


def _consume(it: Iterator[T], f: Callable[[T], None]) -> None:
    for rec in it:
        f(rec)


def _count_iter(it: Iterator) -> int:
    return sum(1 for _ in it)


def _count_by_value_iter(it: Iterator) -> Dict[Any, int]:
    counts: Dict[Any, int] = defaultdict(int)
    for rec in it:
        counts[rec] += 1
    return dict(counts)


def _add(a, b):
    return a + b


def _min2(a, b):
    return a if a <= b else b


def _max2(a, b):
    return a if a >= b else b


def _stat_seq(acc: "StatCounter", value) -> "StatCounter":
    acc.merge_value(value)
    return acc


def _stat_comb(a: "StatCounter", b: "StatCounter") -> "StatCounter":
    a.merge_stats(b)
    return a


class ParallelCollectionRDD(RDD):
    """An RDD over an in-memory sequence, split into even slices."""

    def __init__(self, context, data: Sequence, num_partitions: int):
        super().__init__(context, max(1, num_partitions))
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


class CoalescedRDD(RDD):
    """Merge parent partitions into fewer output partitions (no shuffle)."""

    def __init__(self, parent: RDD, num_partitions: int):
        super().__init__(parent.context, num_partitions, [parent])
        self._parent = parent

    def compute(self, split: int) -> Iterator:
        parent_parts = self._parent.num_partitions
        mine = [
            p for p in range(parent_parts)
            if p * self.num_partitions // parent_parts == split
        ]
        for p in mine:
            yield from self._parent.iterator(p)
